#!/usr/bin/env python3
"""Write the benchmark's figures for one checkout to BENCH_<workload>.json.

    python3 scripts/bench_trajectory.py [--checkout DIR] [--workload NAME ...]
                                        [--seed N] [--runs N] [--out-dir DIR]

For each workload this runs ``python3 benchmark/run.py --workload NAME
--seed N`` in the checkout ``--runs`` times and once more with
``--trace 1``, each as its own subprocess, and writes
``<out-dir>/BENCH_<workload>.json``: the checkout's commit, whether its
tracked files other than ``BENCH_*.json`` differ from that commit, a
digest of its ``src/`` tree,
the median, min and max of each end-to-end metric over the untraced
runs, and each layer's call count and self time from the traced run.
The benchmark itself is only run, never imported or changed.  Exits 1
when a run fails or reports an incorrect result; the file is then not
written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("boolean-game", "wide-boolean", "real-quantum")


def git(checkout: pathlib.Path, *args) -> str:
    """Output of a git command in the checkout, or None outside a repository."""
    done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(checkout: pathlib.Path) -> str:
    """sha256 over the relative paths and bytes of the ``src/`` files."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def bench(checkout: pathlib.Path, workload: str, seed: int, trace: bool) -> dict:
    """The final JSON line of one benchmark run; exits on a failed run."""
    command = [sys.executable, "benchmark/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        sys.exit(f"error: {' '.join(command)} failed: {done.stderr[-2000:]}")
    return result


def trajectory(checkout: pathlib.Path, workload: str, seed: int, runs: int) -> dict:
    untraced = [bench(checkout, workload, seed, False)["metrics"] for _ in range(runs)]
    traced = bench(checkout, workload, seed, True)["metrics"]
    end_to_end = {}
    for name, first in untraced[0].items():
        values = [run[name]["value"] for run in untraced]
        end_to_end[name] = {"unit": first["unit"], "median": statistics.median(values),
                            "min": min(values), "max": max(values)}
    names = [key[:-len(".self_s")] for key in traced if key.endswith(".self_s")]
    layers = {name: {"calls": traced[f"{name}.calls"]["value"],
                     "self_s": traced[f"{name}.self_s"]["value"]} for name in names}
    status = git(checkout, "status", "--porcelain", "--untracked-files=no", "--",
                 ".", ":!BENCH_*.json")
    return {
        "workload": workload,
        "seed": seed,
        "runs": runs,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "tracked_files_changed": None if status is None else bool(status),
        "src_sha256": source_digest(checkout),
        "end_to_end": end_to_end,
        "layers": layers,
        "trace_overhead_ratio": traced["trace.overhead_ratio"]["value"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=pathlib.Path, default=ROOT,
                        help="root of the majcert checkout to measure (default: this one)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to measure, repeatable (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=5, help="untraced runs per workload")
    parser.add_argument("--out-dir", type=pathlib.Path, default=None,
                        help="directory for the files (default: the checkout)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    checkout = args.checkout.resolve()
    out_dir = args.out_dir or checkout
    for workload in args.workload or WORKLOADS:
        figures = trajectory(checkout, workload, args.seed, args.runs)
        path = out_dir / f"BENCH_{workload}.json"
        path.write_text(json.dumps(figures, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
