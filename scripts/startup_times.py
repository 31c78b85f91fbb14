#!/usr/bin/env python3
"""Print the median whole-process time of `import liegrpd.cli` and of one CLI
command per family, each run in a fresh interpreter.

Every child gets the caller's environment, so `PYTHONPATH` picks the checkout
and `PYTHONDONTWRITEBYTECODE` decides whether the source is compiled on every
run.  The runs go round-robin, so a change of machine speed touches every row
alike.  A process pays its import once, which an in-process benchmark cannot
show:

    PYTHONPATH=<checkout>/src python3 scripts/startup_times.py [--repeat N]
"""
import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAIN = "import sys, liegrpd.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
RUNS = [
    ("import liegrpd.cli", ["-c", "import liegrpd.cli"]),
    ("lie census --name axb", ["-c", MAIN, "lie", "census", "--name", "axb"]),
    ("lie exptest --name axb", ["-c", MAIN, "lie", "exptest", "--name", "axb"]),
    ("cascade --family A --rank 3", ["-c", MAIN, "cascade", "--family", "A", "--rank", "3"]),
    ("grpd pullback-verify --in corpus/s3_natural.json",
     ["-c", MAIN, "grpd", "pullback-verify", "--in", "corpus/s3_natural.json"]),
]


def elapsed_ms(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * 1000.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=11, help="runs of each row")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    times = {label: [] for label, _ in RUNS}
    for _ in range(args.repeat):
        for label, argv in RUNS:
            times[label].append(elapsed_ms(argv))
    cached = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"# median of {args.repeat} fresh processes, bytecode cache {cached}")
    for label, _ in RUNS:
        print(f"{statistics.median(times[label]):8.1f} ms  {label}")


if __name__ == "__main__":
    main()
