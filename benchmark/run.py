#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of majcert.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every timed phase runs in a fresh
interpreter (``child.py``), one at a time, with one BLAS thread and a
fixed hash seed, importing majcert from the checkout's ``src``, and is
timed in reference seconds (``speed.py``).

A run is a fixed sequence of phases; ``--seconds`` is accepted for the
common benchmark command line and not read.  With ``--trace 0`` a run
launches the set-up child several times, then one ``run`` child (every
config of the workload, written to ``.bench_out/<workload>/``), the
workload's ``verify`` children and the independent checks of
``check.py``.  It prints the end-to-end metrics: ``setup_s`` (median
launch), ``run_s``, ``verify_s`` (median verify child), ``report_bytes``
and ``peak_rss_mb``.

With ``--trace 1`` a run makes one untraced ``run`` child, then one
traced ``run`` and one traced ``verify`` child, and prints per-layer call
counts and self times (``spans.py``) plus the tracing overhead of the
traced ``run`` child, its span count times the wrapper's measured cost
per call, as a ratio to its ``run_s`` without that overhead.

Operations are the records verified, the independent checks, on
real-quantum three tamper probes, and in a traced run one byte-identity
comparison per report between the untraced and the traced ``run``
child; a tamper probe fails when ``verify_report`` accepts the tampered
record.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

#: environment of every child (and one BLAS thread for this process's numpy)
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                  PYTHONHASHSEED="0")

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans  # noqa: E402

CONFIG_DIR = "scripts/configs"
BENCH_CONFIG_DIR = HERE.relative_to(ROOT) / "configs"

#: majcert configs per workload; ``pinned`` configs keep their shipped
#: seed, the others run at the benchmark's seed
WORKLOADS = {
    "boolean-game": {
        "configs": [f"{CONFIG_DIR}/majcert.json", f"{CONFIG_DIR}/majcert_robust.json"],
        "pinned": [f"{CONFIG_DIR}/equivalence.json"],
        "verify_children": 1,
        "tamper": False,
    },
    "wide-boolean": {
        "configs": [f"{BENCH_CONFIG_DIR}/wide-boolean.json"],
        "pinned": [],
        "verify_children": 1,
        "tamper": False,
    },
    "real-quantum": {
        "configs": [f"{CONFIG_DIR}/{name}.json" for name in
                    ("realmajcert", "winnow", "l1winnow", "dims", "occam", "l2counter",
                     "quantum-protocol")],
        "pinned": [],
        "verify_children": 5,
        "tamper": True,
    },
}

#: traced layers that must record calls on each workload
EXPECTED_LAYERS = {
    "boolean-game": [
        "concepts.is_isolated", "concepts.restrict_class",
        "games.solve_zero_sum", "games.solve_game_full_lp", "games.double_oracle_solve",
        "games.k_isolatable_members", "games.AliceStrategy.validate",
        "winnow.weak_certify",
        "decompose.majority_certificates", "decompose.robust_majority_certificates",
        "formats.boolean_to_hex", "formats.boolean_from_hex", "formats.canonical_json",
        "generators.random_boolean_class",
        "suites.run_suite", "suites.verify_report",
    ],
    "wide-boolean": [
        "decompose.majority_certificates",
        "formats.boolean_to_hex", "formats.boolean_from_hex",
        "generators.random_boolean_class",
    ],
    "real-quantum": [
        "winnow.fat_shattering_dim", "winnow.vc_dim", "winnow.epsilon_cover",
        "winnow.safe_winnow", "winnow.l1_winnow",
        "decompose.real_majority_certificates", "decompose.verify_real_decomposition",
        "decompose.find_valid_sample_size", "decompose.occam_check",
        "qsim.measurement_operator", "qsim.params_to_state", "qsim.DensityMatrix.__post_init__",
        "protocol.compile_advice", "protocol.adversary_search",
        "protocol.conditional_soundness_bound", "protocol.fat_dim_quantum_check",
        "protocol.verifier_A",
        "generators.random_pconcept_class",
    ],
}

SETUP_LAUNCHES = 7
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


def child_command(*args) -> list:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def launch(*args) -> dict:
    proc = subprocess.run(child_command(*args), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(spec: dict) -> tuple:
    """(reference, wall) seconds from spawning the set-up child to its exit."""
    started = time.perf_counter()
    result = launch("setup", "--configs", *spec["configs"], "--pinned", *spec["pinned"])
    wall = time.perf_counter() - started - result["probe_s"]
    return wall * result["speed_factor"], wall


class Tally:
    """Operations attempted and failed; failures other than accepted
    tamper probes make the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def op(self, name: str, ok: bool, tamper: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not tamper:
                self.problems.append(name)


def run_child(workload: str, seed: int, out: pathlib.Path, trace_path=None) -> dict:
    spec = WORKLOADS[workload]
    trace = ["--trace", trace_path] if trace_path else []
    return launch("run", "--configs", *spec["configs"], "--pinned", *spec["pinned"],
                  "--seed", seed, "--out", out, *trace)


def merge_layers(*parts) -> dict:
    return {name: {"calls": sum(p[name]["calls"] for p in parts),
                   "self_s": sum(p[name]["self_s"] for p in parts)}
            for name in spans.NAMES}


def report_digests(out: pathlib.Path) -> dict:
    return {p.name: (hashlib.sha256(p.read_bytes()).hexdigest(), p.stat().st_size)
            for p in sorted(out.glob("*.report.json"))}


def verify_and_check(workload: str, out: pathlib.Path, tally: Tally,
                     launches: int, trace_path=None) -> list:
    """Verify children (the first one also probes the tampers) and the
    independent checks; returns the verify children's results."""
    spec = WORKLOADS[workload]
    results = []
    for i in range(launches):
        args = ["verify", "--out", out]
        if i == 0 and spec["tamper"]:
            args.append("--tamper")
        if trace_path:
            args += ["--trace", trace_path]
        results.append(launch(*args))
    first = results[0]
    for name, oks in first["records"].items():
        for index, ok in enumerate(oks):
            tally.op(f"verify {name}[{index}]", ok)
    for index, accepted in first.get("tamper_accepted", {}).items():
        tally.op(f"tamper quantum-protocol[{index}] rejected", not accepted, tamper=True)
    for path in sorted(out.glob("*.report.json")):
        try:
            with open(path) as fh:
                checks = check.check_report(json.load(fh))
        except Exception as exc:  # a report the checker cannot read fails its checks
            checks = [(f"check {path.name}: {exc!r}", False)]
        for name, ok in checks:
            tally.op(name, ok)
    return results


def compare_digests(digests: dict, reference: dict, tally: Tally) -> None:
    for name in sorted(set(digests) | set(reference)):
        tally.op(f"byte-identical {name}", digests.get(name) == reference.get(name))


def measure(workload: str, seed: int, out: pathlib.Path, tally: Tally) -> dict:
    spec = WORKLOADS[workload]
    time_setup(spec)  # warm-up: byte-compiles and fills the file cache
    setups = [time_setup(spec) for _ in range(SETUP_LAUNCHES)]
    print("setup reference/wall s: " + " ".join(f"{r:.3f}/{w:.3f}" for r, w in setups),
          file=sys.stderr)
    run = run_child(workload, seed, out)
    results = verify_and_check(workload, out, tally, spec["verify_children"])
    print(f"reference/wall s: run {run['run_s']:.3f}/{run['run_wall_s']:.3f} verify "
          + " ".join(f"{r['verify_s']:.3f}/{r['verify_wall_s']:.3f}" for r in results),
          file=sys.stderr)
    return {
        "setup_s": (statistics.median(r for r, _ in setups), "s"),
        "run_s": (run["run_s"], "s"),
        "verify_s": (statistics.median(r["verify_s"] for r in results), "s"),
        "report_bytes": (sum(p.stat().st_size for p in out.glob("*.report.json")), "bytes"),
        "peak_rss_mb": (max([run["peak_rss_mb"]] + [r["peak_rss_mb"] for r in results]), "MB"),
    }


def measure_traced(workload: str, seed: int, out: pathlib.Path, tally: Tally) -> dict:
    untraced = run_child(workload, seed, out)
    untraced_digests = report_digests(out)
    traced = run_child(workload, seed, out, trace_path=out / "spans-run.json")
    compare_digests(report_digests(out), untraced_digests, tally)
    verified = verify_and_check(workload, out, tally, 1, trace_path=out / "spans-verify.json")
    layers = merge_layers(traced["layers"], verified[0]["layers"])
    for name in EXPECTED_LAYERS[workload]:
        if layers[name]["calls"] == 0 or layers[name]["self_s"] <= 0.0:
            tally.problems.append(f"layer {name} recorded nothing")
    metrics = {}
    for name in spans.NAMES:
        metrics[f"{name}.calls"] = (layers[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (layers[name]["self_s"], "s")
    overhead = traced["trace_overhead_s"]
    metrics["trace.overhead_ratio"] = (traced["run_s"] / (traced["run_s"] - overhead), "ratio")
    print(f"reference/wall s: traced run {traced['run_s']:.3f}/{traced['run_wall_s']:.3f} "
          f"untraced run {untraced['run_s']:.3f}/{untraced['run_wall_s']:.3f}; "
          f"tracing overhead {overhead:.3f} s", file=sys.stderr)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for the common benchmark command line and not "
                             "read: a run is a fixed sequence of phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = WORKLOADS[args.workload]
    missing = [p for p in ["src/majcert/__init__.py", *spec["configs"], *spec["pinned"]]
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a majcert checkout, missing {missing}", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tally = Tally()
    try:
        if args.trace:
            metrics = measure_traced(args.workload, args.seed, out, tally)
        else:
            metrics = measure(args.workload, args.seed, out, tally)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
