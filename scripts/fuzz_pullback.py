#!/usr/bin/env python3
"""Fuzz harness: build random transformation groupoids and check that every
one of them passes the pullback-isomorphism and equivalence-bimodule
verifications, and that the matrix-algebra dimension count matches the
morphism count.

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
    pullback_isomorphism_verify,
    random_transformation_groupoid,
    validate_groupoid,
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
            validate_groupoid(G)
            pb = pullback_isomorphism_verify(G)
            bm = equivalence_bimodule_verify(G)
            prof = algebra_profile(G)
            assert pb.ok, pb.failure
            assert bm.ok, bm.failure
            assert prof.matches_morphism_count
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
