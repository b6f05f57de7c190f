"""Report assembly and deterministic serialization.

Reports are canonical JSON (keys sorted; ``formats`` gives the float
rule) with no wall-clock data, so one (config, seed, artifact version)
triple always gives byte-identical bytes; timing goes to stderr.  Every
record carries a verification verdict and enough serialized artifact
data for ``majcert verify`` to re-check the verdict offline.
"""

from __future__ import annotations

import sys

from . import __version__
from .formats import canonical_json

SCHEMA_VERSION = 1


def build_report(suite: str, config: dict, seed: int, records: list,
                 notes: dict | None = None) -> dict:
    passed = sum(1 for r in records if r["verified"])
    report = {
        "schema": SCHEMA_VERSION,
        "artifact": {"name": "majcert", "version": __version__},
        "suite": suite,
        "config": config,
        "seed": seed,
        "records": records,
        "summary": {
            "records": len(records),
            "passed": passed,
            "failed": len(records) - passed,
        },
    }
    if notes:
        report["notes"] = notes
    return report


def write_report(path, report: dict) -> None:
    text = canonical_json(report)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
