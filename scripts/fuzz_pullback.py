#!/usr/bin/env python3
"""Fuzz harness: build random transformation groupoids and check that every
one of them passes the pullback-isomorphism and equivalence-bimodule
verifications, and that the matrix-algebra dimension count matches the
morphism count.  Each groupoid is also written as an explicit-table JSON
document and read back; the copy must validate and get the same reports.
Each groupoid's pullback (`build_pullback`) must validate, with
associativity decided by Light's test on its generators; a pullback that
fails validation or falls back to every triple counts as a failure.

The structural side: each groupoid is in structural mode, where it is a
groupoid by construction and the verifiers run on generators, and its
label-built copy `dataclasses.replace(G)` is not.  The copy must validate
by Light's test, and its pullback, bimodule and decomposition reports must
equal the structural ones; any disagreement counts as a failure.

The failure side: the pullback and bimodule verifiers validate a groupoid
first, so each copy below must be refused alike by validation, the
pullback verifier and the bimodule verifier: each raises the same
AxiomError with the same witness, and anything else counts as a failure.
- Tampered: one product per groupoid is replaced by another arrow with the
  same endpoints.  A single changed entry cannot keep the groupoid laws.
- Off-hom: one product g o z, z out of an orbit representative, is
  replaced by an arrow with other endpoints, which validation refuses as
  "composite has wrong endpoints".
- Wrong sections: one identity is replaced by another loop at its object,
  and one inverse by another arrow of its hom-set.

Usage:
    python3 scripts/fuzz_pullback.py [--trials N] [--seed S]
"""
import argparse
import dataclasses
import random
import sys
import time

from liegrpd.groupoids import (
    AxiomError,
    FiniteGroupoid,
    algebra_profile,
    build_pullback,
    equivalence_bimodule_verify,
    groupoid_from_json,
    groupoid_to_json,
    orbits_isotropy,
    piecewise_decompose,
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


def structural_reports(G):
    """The validate mode, and the pullback, bimodule and decomposition reports."""
    validate_groupoid(G)
    return (G.ids.associativity[0], pullback_isomorphism_verify(G),
            equivalence_bimodule_verify(G), piecewise_decompose(G))


def tampered(G, rng):
    """G with one product replaced by another arrow with its endpoints, or
    None when every hom-set holds a single arrow."""
    pairs = [(g, h) for g, h in G.composable_pairs()
             if len(G.hom(G.source[h], G.target[g])) > 1]
    if not pairs:
        return None
    key = rng.choice(pairs)
    right = G.compose(*key)
    return replaced(G, key, rng.choice([k for k in G.hom(G.source[key[1]], G.target[key[0]])
                                        if k != right]))


def off_hom(G, rng):
    """G with one product g o z, z out of an orbit representative, replaced
    by an arrow with other endpoints, or None when G has one object."""
    if len(G.objects) < 2:
        return None
    reps = set(orbits_isotropy(G).representatives)
    key = rng.choice([(g, z) for g, z in G.composable_pairs() if G.source[z] in reps])
    ends = (G.source[key[1]], G.target[key[0]])
    return replaced(G, key, rng.choice([k for k in G.morphisms
                                        if (G.source[k], G.target[k]) != ends]))


def replaced(G, key, wrong):
    """G with the product of the pair `key` replaced by `wrong`."""
    return FiniteGroupoid(
        G.objects, G.morphisms, G.source, G.target,
        lambda g, h: wrong if (g, h) == key else G.compose(g, h),
        G.identities, G.inverses,
    )


def wrong_sections(G, rng):
    """G with one identity replaced by another loop at its object, and G
    with one inverse replaced by another arrow of its hom-set, where G has
    such arrows."""
    loops = [(x, k) for x in G.objects for k in G.hom(x, x) if k != G.identities[x]]
    if loops:
        x, k = rng.choice(loops)
        yield dataclasses.replace(G, identities={**G.identities, x: k})
    arrows = [(g, k) for g in G.morphisms for k in G.hom(G.target[g], G.source[g])
              if k != G.inverses[g]]
    if arrows:
        g, k = rng.choice(arrows)
        yield dataclasses.replace(G, inverses={**G.inverses, g: k})


def refusal(verify, G):
    """The args of the AxiomError that verify(G) raises, or None."""
    try:
        verify(G)
    except AxiomError as exc:
        return exc.args
    return None


def refused_alike(G):
    """The args of the AxiomError that validation, the pullback verifier and
    the bimodule verifier each raise on G; AssertionError unless all three
    raise it alike."""
    outcomes = [refusal(verify, G) for verify in (
        validate_groupoid, pullback_isomorphism_verify, equivalence_bimodule_verify)]
    assert outcomes[0] and outcomes.count(outcomes[0]) == 3, f"refusals differ: {outcomes}"
    return outcomes[0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    tamper_rng = random.Random(f"tamper-{args.seed}")
    off_hom_rng = random.Random(f"off-hom-{args.seed}")
    sections_rng = random.Random(f"sections-{args.seed}")
    t0 = time.perf_counter()
    failures = 0
    max_mor = 0
    tampered_trials = off_hom_trials = pullbacks = 0
    section_trials = structural = 0
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
            mode, *ours = structural_reports(G)
            copy_mode, *theirs = structural_reports(dataclasses.replace(G))
            assert (mode, copy_mode) == ("structural", "generators"), (mode, copy_mode)
            assert ours == theirs, "the label-built copy disagrees with structural mode"
            structural += 1
            P = build_pullback(G)
            validate_groupoid(P)
            assert P.ids.associativity[0] == "generators", "the pullback fell back to every triple"
            pullbacks += 1
            T = tampered(G, tamper_rng)
            if T is not None:
                tampered_trials += 1
                refused_alike(T)
            T = off_hom(G, off_hom_rng)
            if T is not None:
                off_hom_trials += 1
                witness = refused_alike(T)
                assert witness[0] == "composite has wrong endpoints", witness
            for T in wrong_sections(G, sections_rng):
                section_trials += 1
                refused_alike(T)
        except Exception as exc:  # noqa: BLE001 - report and keep fuzzing
            failures += 1
            print(f"[{k}] FAILED: {type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    print(f"{args.trials} random transformation groupoids, "
          f"largest had {max_mor} morphisms, "
          f"{failures} failures, {dt:.1f}s")
    print(f"{pullbacks} pullbacks validated by Light's test on their generators")
    print(f"{structural} structural groupoids agreed with their label-built copies")
    print(f"{tampered_trials} tampered, {off_hom_trials} off-hom and {section_trials} "
          f"wrong-identity or wrong-inverse copies: each refused alike by validate, "
          f"pullback and bimodule, or counted as a failure above")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
