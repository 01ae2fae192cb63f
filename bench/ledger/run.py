#!/usr/bin/env python3
"""Builds the ledger benchmark from source, then runs it.

Run from anywhere inside a checkout:

  python3 bench/ledger/run.py --workload NAME|all --seed N [--seconds S]
                              [--trace 0|1] [--work-dir DIR]
  python3 bench/ledger/run.py --selftest

Every invocation first configures (once) and builds bench/ledger, which
compiles the library from src/, into .bench_build at the checkout root, or
into $CARGO_TARGET_DIR when that is set. Build output goes to stderr, so the
benchmark's JSON result stays the last line of stdout. `--workload all` runs
the workloads one after another, each in its own process. The exit status
is the benchmark's: non-zero when the build fails or any check does.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["lake_dense", "kfk_train", "serve_mixed", "serve_wide"]


def build():
    """Returns the path of the built binary, or None when the build fails."""
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return out / "ledger"


def main(argv):
    binary = build()
    if binary is None:
        print("ledger: build failed", file=sys.stderr)
        return 1
    if "--workload" in argv[:-1] and argv[argv.index("--workload") + 1] == "all":
        at = argv.index("--workload") + 1
        failed = False
        for workload in WORKLOADS:
            args = argv[:at] + [workload] + argv[at + 1:]
            failed |= subprocess.run([str(binary)] + args,
                                     cwd=ROOT).returncode != 0
        return 1 if failed else 0
    return subprocess.run([str(binary)] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
