#!/usr/bin/env python3
"""Run every experiment suite with its shipped config and verify the
reports, mirroring what CI would do.

Usage: python scripts/run_all_suites.py [--out-dir reports]
           [--seed shipped|N ...] [CONFIG ...]

Each config in scripts/configs/, plus any CONFIG paths given, runs once
per --seed (default: the config's own seed, named `shipped`); the
reports of one seed go to the sub-directory `shipped` or `seed-N` of
--out-dir. The exit status is nonzero if any run or verify failed.
Comparing two checkouts is one invocation in each and a `diff -r` of
the two output directories.
"""

import argparse
import json
import pathlib
import sys

from majcert.cli import main as cli_main

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"


def seed_arg(text: str):
    """`shipped` (the config's own seed, as None) or an integer seed."""
    return None if text == "shipped" else int(text)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--seed", type=seed_arg, action="append",
                        help="`shipped` or an integer; repeat for several seeds")
    parser.add_argument("configs", nargs="*", type=pathlib.Path,
                        help="config paths to run besides scripts/configs/*.json")
    args = parser.parse_args()

    configs = sorted(CONFIG_DIR.glob("*.json")) + args.configs
    stems = [path.stem for path in configs]
    if len(set(stems)) != len(stems):
        parser.error("two configs share a file name; their reports would collide")
    failures = 0
    for seed in args.seed or [None]:
        out_dir = pathlib.Path(args.out_dir) / ("shipped" if seed is None else f"seed-{seed}")
        out_dir.mkdir(parents=True, exist_ok=True)
        for config_path in configs:
            suite = json.loads(config_path.read_text())["suite"]
            report_path = out_dir / f"{config_path.stem}.report.json"
            argv = ["run", "--config", str(config_path), "--out", str(report_path)]
            if seed is not None:
                argv += ["--seed", str(seed)]
            print(f"== {suite} ({config_path.stem}, {out_dir.name}) ==", flush=True)
            if cli_main(argv) != 0 or cli_main(["verify", "--report", str(report_path)]) != 0:
                failures += 1
    print(f"done; {failures} run(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
