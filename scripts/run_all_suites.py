#!/usr/bin/env python3
"""Run every experiment suite with its shipped config and verify the
reports, mirroring what CI would do.

Usage: python scripts/run_all_suites.py [--out-dir reports] [--seed N]
"""

import argparse
import json
import pathlib
import sys

from majcert.cli import main as cli_main

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for config_path in sorted(CONFIG_DIR.glob("*.json")):
        suite = json.loads(config_path.read_text())["suite"]
        report_path = out_dir / f"{config_path.stem}.report.json"
        argv = ["run", "--config", str(config_path), "--out", str(report_path)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        print(f"== {suite} ==", flush=True)
        code = cli_main(argv)
        if code != 0:
            failures += 1
            continue
        if cli_main(["verify", "--report", str(report_path)]) != 0:
            failures += 1
    print(f"done; {failures} suite(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
