#!/usr/bin/env python3
"""Run the open-orbit component census on the bundled solvable algebras
and print one summary line per algebra.

With --axb-max K it also runs axb_semidirect_plane and the direct sums
(ax+b)^k for 2 <= k <= K, whose 2^k components are the orthants of the
coordinates xi_2, xi_4, ..., xi_2k.

Usage:
    python3 scripts/census_demo.py [--samples N] [--seed S] [--axb-max K]
"""
import argparse
import time

from liegrpd import catalog
from liegrpd.coadjoint import open_component_census
from liegrpd.lie import from_brackets


def axb_power(k: int):
    """(ax+b)^k: [Y_2i-1, Y_2i] = Y_2i in each of the k summands."""
    return from_brackets(2 * k, {(2 * i, 2 * i + 1): {2 * i + 1: 1} for i in range(k)})


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=256)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--axb-max", type=int, default=0,
                    help="add axb_semidirect_plane and (ax+b)^k for k <= K")
    args = ap.parse_args()

    cases = [
        ("axb", catalog.axb()),
        ("heisenberg", catalog.heisenberg()),
        ("e2", catalog.euclid2()),
        ("filiform4", catalog.filiform4()),
        ("realified_borel", catalog.realified_borel()),
    ]
    if args.axb_max >= 1:
        cases.append(("axb_semidirect_plane", catalog.axb_semidirect_plane()))
    cases += [(f"axb^{k}", axb_power(k)) for k in range(2, args.axb_max + 1)]

    header = (f"{'algebra':>20}  {'dim':>3}  {'components':>10}  "
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
        print(f"{name:>20}  {L.dim:>3}  {census.component_count:>10}  "
              f"{paired:>6}  {even:>5}  {exp:>5}  {dt:>6.2f}")
        for note in census.notes:
            print(" " * 22 + note)


if __name__ == "__main__":
    main()
