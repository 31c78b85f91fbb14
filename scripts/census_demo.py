#!/usr/bin/env python3
"""Run the open-orbit component census on the bundled solvable algebras
and print one summary line per algebra.

Usage:
    python3 scripts/census_demo.py [--samples N] [--seed S]
"""
import argparse
import time

from liegrpd import catalog
from liegrpd.coadjoint import open_component_census


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=256)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cases = [
        ("axb", catalog.axb()),
        ("heisenberg", catalog.heisenberg()),
        ("e2", catalog.euclid2()),
        ("filiform4", catalog.filiform4()),
        ("realified_borel", catalog.realified_borel()),
    ]

    header = (f"{'algebra':>16}  {'dim':>3}  {'components':>10}  "
              f"{'paired':>6}  {'even':>5}  {'exp':>5}  {'sec':>6}")
    print(header)
    print("-" * len(header))
    for name, L in cases:
        t0 = time.perf_counter()
        census = open_component_census(L, samples=args.samples, seed=args.seed)
        dt = time.perf_counter() - t0
        paired = "yes" if census.negation_pairing else "-"
        if census.exponential:
            even = "yes" if census.even else "no"
        else:
            even = "n/a"  # evenness is only a theorem for exponential algebras
        exp = "yes" if census.exponential else "no"
        print(f"{name:>16}  {L.dim:>3}  {census.component_count:>10}  "
              f"{paired:>6}  {even:>5}  {exp:>5}  {dt:>6.2f}")
        for note in census.notes:
            print(" " * 18 + note)


if __name__ == "__main__":
    main()
