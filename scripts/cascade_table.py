#!/usr/bin/env python3
"""Print the open-orbit classification table for the classical and
exceptional root systems, together with the strongly orthogonal
cascade sizes that decide it.

Usage:
    python3 scripts/cascade_table.py [--max-rank N]
"""
import argparse

from liegrpd.rootsystems import build_root_system, kostant_cascade, systems_up_to


def fmt_root(r):
    return "(" + ", ".join(str(c) for c in r) + ")"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-rank", type=int, default=8)
    ap.add_argument("--show-cascades", action="store_true",
                    help="also print the cascade roots for each system")
    args = ap.parse_args()

    header = f"{'system':>7}  {'rank':>4}  {'#roots+':>7}  {'cascade':>7}  open orbit"
    print(header)
    print("-" * len(header))
    for fam, ell in systems_up_to(args.max_rank):
        rs = build_root_system(fam, ell)
        cas = kostant_cascade(rs)
        verdict = "yes" if len(cas) == ell else "no"
        print(f"{fam}{ell:<2}".rjust(7)
              + f"  {ell:>4}  {len(rs.doubled_roots):>7}  {len(cas):>7}  {verdict}")
        if args.show_cascades:
            for r in cas:
                print(" " * 9 + fmt_root(r))


if __name__ == "__main__":
    main()
