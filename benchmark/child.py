"""One benchmark phase in a fresh interpreter, as a CLI user would run it.

    child.py setup  --configs A.json --pinned B.json
    child.py run    --configs A.json --pinned B.json --seed N --out DIR [--trace SPANS.json]
    child.py verify --out DIR [--tamper] [--trace SPANS.json]

``setup`` imports majcert, passes every config through ``validate_config``
and prints its machine-speed factor (reference over wall seconds, see
``speed.py``) from interpreter start.  ``run`` times ``run_suite`` plus
``write_report`` for every config (``majcert run`` after import), at seed
N except for ``--pinned`` configs, which keep their own seed; ``verify``
times reading every report in DIR and calling ``verify_report`` on it
(``majcert verify`` after import), then, untimed with ``--tamper``,
verifies three tampered copies of the quantum-protocol report.  ``run``
and ``verify`` print one JSON line with their timings in reference and
wall seconds, peak RSS and (with ``--trace``) the per-layer call counts
and self times of the timed phase and its tracing overhead, the span
count times the wrapper's measured cost per call.  majcert is imported from the ``src``
directory next to this one.
"""

from __future__ import annotations

import argparse
import copy
import json
import pathlib
import resource
import sys

import speed

ROOT = pathlib.Path(__file__).resolve().parent.parent


def report_path(out: pathlib.Path, config_path: str) -> pathlib.Path:
    return out / (pathlib.Path(config_path).stem + ".report.json")


def tampered_copies(report: dict) -> list:
    """(record index, tampered report) for the three quantum-protocol
    tampers that today's verify_quantum_record accepts."""
    def tamper(index, edit):
        bad = copy.deepcopy(report)
        edit(bad["records"][index]["outputs"])
        return index, bad

    def no_violation(out):
        out["best_error"] = 0.0

    def certain_acceptance(out):
        for entry in out["amplification"]:
            entry["acceptance"] = 1.0

    def increasing_dims(out):
        out["dims"] = [0, 1, 2]

    return [tamper(3, no_violation), tamper(4, certain_acceptance),
            tamper(5, increasing_dims)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    startup = speed.Phase().start()
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "verify"))
    parser.add_argument("--configs", nargs="*", default=[])
    parser.add_argument("--pinned", nargs="*", default=[])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--tamper", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import majcert
    if pathlib.Path(majcert.__file__).resolve().parent != ROOT / "src" / "majcert":
        sys.exit(f"majcert was imported from {majcert.__file__}, not from this checkout")
    from majcert import suites
    from majcert.reporting import write_report

    if args.mode == "setup":
        for path in args.configs + args.pinned:
            with open(ROOT / path) as fh:
                suites.validate_config(json.load(fh))
        startup.stop()
        print(json.dumps({"probe_s": startup.probe_s,
                          "speed_factor": startup.reference_s / startup.wall_s}))
        return 0
    startup.stop()

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    out = pathlib.Path(args.out)
    result: dict = {}
    if args.mode == "run":
        configs = []
        for paths, seed in ((args.configs, args.seed), (args.pinned, None)):
            for path in paths:
                with open(ROOT / path) as fh:
                    configs.append((report_path(out, path), json.load(fh), seed))
        with speed.Phase() as phase:
            for path, config, seed in configs:
                write_report(str(path), suites.run_suite(config, seed_override=seed))
        result["run_s"], result["run_wall_s"] = phase.reference_s, phase.wall_s
    else:
        paths = sorted(out.glob("*.report.json"))
        records = {}
        with speed.Phase() as phase:
            for path in paths:
                with open(path) as fh:
                    records[path.name] = suites.verify_report(json.load(fh))
        result["verify_s"], result["verify_wall_s"] = phase.reference_s, phase.wall_s
        result["records"] = {name: [bool(ok) for _, ok in res] for name, res in records.items()}
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        result["layers"] = tracer.summary()
        result["trace_overhead_s"] = len(tracer.spans) * spans.wrapper_cost_s()
        tracer.dump(args.trace)
    if args.mode == "verify" and args.tamper:
        with open(out / "quantum-protocol.report.json") as fh:
            report = json.load(fh)
        result["tamper_accepted"] = {
            str(index): dict(suites.verify_report(bad))[index]
            for index, bad in tampered_copies(report)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
