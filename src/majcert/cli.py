"""Command-line experiment runner.

``majcert run --config cfg.json [--seed N] [--out path]``
executes one suite deterministically and writes a canonical JSON report;
the exit status is nonzero iff any record failed verification.

``majcert verify --report report.json`` re-checks every verdict from the
serialized artifacts inside the report, with the same per-suite check
that ``run`` used to set it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import RejectedInputError
from .reporting import write_report
from .suites import run_suite, verify_report


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise RejectedInputError(f"{path} is not JSON: {exc}") from None


def _cmd_run(args) -> int:
    config = _load_json(args.config)
    started = time.monotonic()
    report = run_suite(config, seed_override=args.seed)
    elapsed = time.monotonic() - started
    write_report(args.out or config.get("output_path") or "-", report)
    summary = report["summary"]
    print(f"suite={report['suite']} records={summary['records']} passed={summary['passed']} "
          f"failed={summary['failed']} elapsed={elapsed:.2f}s", file=sys.stderr)
    return 0 if summary["failed"] == 0 else 1


def _cmd_verify(args) -> int:
    results = verify_report(_load_json(args.report))
    failed = 0
    for index, ok in results:
        print(f"record {index}: {'ok' if ok else 'FAILED'}")
        if not ok:
            failed += 1
    print(f"verified {len(results)} records, {failed} failed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="majcert",
                                     description="majority-certificates experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a suite from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="re-check all verdicts in a report")
    verify_p.add_argument("--report", required=True)
    verify_p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RejectedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
