#!/usr/bin/env python3
"""Fuzz harness: build random transformation groupoids and check that every
one of them passes the pullback-isomorphism and equivalence-bimodule
verifications, and that the matrix-algebra dimension count matches the
morphism count.  Each groupoid is also written as an explicit-table JSON
document and read back; the copy must validate and get the same reports.

Usage:
    python3 scripts/fuzz_pullback.py [--trials N] [--seed S]
"""
import argparse
import random
import sys
import time

from liegrpd.groupoids import (
    algebra_profile,
    equivalence_bimodule_verify,
    groupoid_from_json,
    groupoid_to_json,
    pullback_isomorphism_verify,
    random_transformation_groupoid,
    validate_groupoid,
)


def verdicts(G):
    validate_groupoid(G)
    return (
        pullback_isomorphism_verify(G),
        equivalence_bimodule_verify(G),
        algebra_profile(G),
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    failures = 0
    max_mor = 0
    for k in range(args.trials):
        G = random_transformation_groupoid(rng)
        max_mor = max(max_mor, len(G.morphisms))
        try:
            pb, bm, prof = reports = verdicts(G)
            assert pb.ok, pb.failure
            assert bm.ok, bm.failure
            assert prof.matches_morphism_count
            table = groupoid_from_json(groupoid_to_json(G))
            assert verdicts(table) == reports, "explicit-table copy disagrees"
        except Exception as exc:  # noqa: BLE001 - report and keep fuzzing
            failures += 1
            print(f"[{k}] FAILED: {type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    print(f"{args.trials} random transformation groupoids, "
          f"largest had {max_mor} morphisms, "
          f"{failures} failures, {dt:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
