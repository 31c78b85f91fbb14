"""Acceptance gate: eleven shipped guarantees, one printed verdict line each.

Each test records exactly one [PASS]/[FAIL] entry; the conftest terminal
summary prints the full checklist after the run.  Timed criteria assert
their own budgets.
"""
import functools
import math
import random
import sys
import time
from fractions import Fraction as Q

import numpy as np

from liegrpd import catalog
from liegrpd.coadjoint import open_component_census
from liegrpd.groupoids import (
    FiniteGroup,
    algebra_profile,
    classify,
    equivalence_bimodule_verify,
    group_bundle,
    orbits_isotropy,
    pair_groupoid,
    pullback_isomorphism_verify,
    random_transformation_groupoid,
    regular_representation_faithful,
    validate_groupoid,
)
from liegrpd.lie import dual_module, structure_series
from liegrpd.rootsystems import cascade_classification
from liegrpd.strata import (
    coadjoint_stratification,
    jordan_holder_flag,
    jump_indices,
    stratify_module,
)
from liegrpd.weights import algebra_is_exponential, algebra_roots, module_weights

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
# alias: a Test-prefixed import would be re-collected as a test class here
from test_weights import TestRandomTriangularPairs as _RandomPairs  # noqa: E402
from test_weights import weight_multiset  # noqa: E402
from dense_reference import eigenvalues_numeric  # noqa: E402


RESULTS = []  # (criterion number, description, passed) — printed by conftest


def criterion(num, desc):
    """Record one verdict line per acceptance criterion, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append((num, desc, False))
                print(f"[FAIL] {num:>2}. {desc}", flush=True)
                raise
            RESULTS.append((num, desc, True))
            print(f"[PASS] {num:>2}. {desc}", flush=True)

        return inner

    return wrap


def corpus_groupoids():
    return [
        ("negation", catalog.negation_groupoid()),
        ("z4_parity", catalog.z4_parity_groupoid()),
        ("s3_natural", catalog.s3_natural_groupoid()),
        ("pair4", pair_groupoid(range(4))),
        ("bundle", group_bundle(
            {0: FiniteGroup.cyclic(2), 1: FiniteGroup.cyclic(1)}, [0, 1]
        )),
    ]


@criterion(1, "open-orbit classification by cascade rank, all systems of rank <= 8")
def test_01_cascade_classification():
    golden_open = (
        {"A1"}
        | {f"B{r}" for r in range(2, 9)}
        | {f"C{r}" for r in range(2, 9)}
        | {"D4", "D6", "D8"}
        | {"E7", "E8", "F4", "G2"}
    )
    t0 = time.perf_counter()
    table = cascade_classification(max_rank=8)
    elapsed = time.perf_counter() - t0
    assert {name for name, is_open in table.items() if is_open} == golden_open
    assert golden_open <= set(table)
    assert elapsed < 5.0, f"classification took {elapsed:.1f}s"


@criterion(2, "component census: ax+b 2 paired, nilpotent/e(2) empty, "
               "realified Borel 1 (flagged non-exponential)")
def test_02_component_census():
    cases = [
        ("axb", catalog.axb(), 2, True),
        ("heisenberg", catalog.heisenberg(), 0, True),
        ("e2", catalog.euclid2(), 0, False),
        ("realified_borel", catalog.realified_borel(), 1, False),
    ]
    for name, L, expect_count, expect_exponential in cases:
        t0 = time.perf_counter()
        census = open_component_census(L, samples=512)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"{name} census took {elapsed:.1f}s"
        assert census.component_count == expect_count, name
        assert census.exponential is expect_exponential, name
        assert not census.heuristic_weights, name
        if name == "axb":
            assert census.even
            assert set(census.negation_pairing) == {(0, 1), (1, 0)}
        if name == "realified_borel":
            assert census.negation_pairing == ((0, 0),)


@criterion(3, "exponential-type verdicts exact on all six reference algebras")
def test_03_exponentiality_oracle():
    for build in (catalog.heisenberg, catalog.filiform4, catalog.axb,
                  catalog.axb_semidirect_plane):
        res = algebra_is_exponential(build())
        assert res.verdict and not res.heuristic, build.__name__

    res = algebra_is_exponential(catalog.euclid2())
    assert not res.verdict and not res.heuristic
    violations = {c.violation for c in res.certificates if c.violation}
    assert violations == {"purely imaginary weight"}

    res = algebra_is_exponential(catalog.realified_borel())
    assert not res.verdict and not res.heuristic
    violations = {c.violation for c in res.certificates if c.violation}
    assert "independent real and imaginary parts" in violations


@criterion(4, "dual-module weights equal the negated multiset on 20 random pairs")
def test_04_dual_weight_negation():
    rng = random.Random(4150)
    builder = _RandomPairs()
    done = 0
    attempts = 0
    while done < 20 and attempts < 300:
        attempts += 1
        try:
            pair = builder.build_pair(rng, rng.choice([2, 2, 3, 3, 4]))
        except Exception:
            continue
        if pair is None:
            continue
        L, M = pair
        if not structure_series(L).is_solvable:
            continue
        ws = module_weights(L, M)
        if any(not w.exact for w in ws):
            continue  # the criterion demands Gaussian-rational spectra
        negated = sorted(
            (tuple(-a for a in w.re), tuple(-a for a in w.im), w.multiplicity)
            for w in ws
        )
        assert weight_multiset(module_weights(L, dual_module(M))) == negated
        done += 1
    assert done == 20, f"only {done} exact pairs out of {attempts} attempts"


@criterion(5, "jump-index strata on the integer grid; |J(xi)| = rank B_xi")
def test_05_jump_stratification():
    t0 = time.perf_counter()
    h3 = catalog.heisenberg()

    # exhaustive {-2..2}^3 slice: the generic stratum is cut out by xi_3 != 0
    strat = coadjoint_stratification(h3)
    assert strat.exhaustive
    assert strat.generic_jump_set == (2, 3)
    from itertools import product
    flag3 = jordan_holder_flag(h3)
    for xi in product([Q(k) for k in range(-2, 3)], repeat=3):
        expected = (2, 3) if xi[2] != 0 else ()
        assert jump_indices(h3, flag3, xi) == expected, xi

    # rank identity on random rational points, both algebras
    rng = random.Random(5)
    for L in (h3, catalog.filiform4()):
        from liegrpd.coadjoint import bform
        from dense_reference import rank_kernel
        flag = jordan_holder_flag(L)
        for _ in range(200):
            xi = tuple(Q(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(L.dim))
            jumps = jump_indices(L, flag, xi)
            rank, _ = rank_kernel(bform(L, xi))
            assert len(jumps) == rank
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"stratification checks took {elapsed:.1f}s"


@criterion(6, "500 random transformation groupoids pass pullback and bimodule checks")
def test_06_pullback_fuzz():
    t0 = time.perf_counter()
    rng = random.Random(600)
    for k in range(500):
        G = random_transformation_groupoid(rng)
        pb = pullback_isomorphism_verify(G)
        assert pb.ok, (k, pb.failure)
        bm = equivalence_bimodule_verify(G)
        assert bm.ok, (k, bm.failure)
        assert len(bm.checks) == 5 and all(ok for _, ok in bm.checks), k
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"fuzzing took {elapsed:.1f}s"


@criterion(7, "single-full-matrix-block profile iff pair groupoid, corpus + 200 random")
def test_07_single_block_iff_pair():
    rng = random.Random(700)
    pool = [G for _, G in corpus_groupoids()]
    pool += [random_transformation_groupoid(rng) for _ in range(200)]
    for G in pool:
        prof = algebra_profile(G)
        single_full_block = len(prof.blocks) == 1 and prof.blocks[0][4] == 1
        assert single_full_block == classify(G).is_pair


@criterion(8, "regular representation faithful iff the orbit covers the objects")
def test_08_regrep_faithful_iff_covering():
    for name, G in corpus_groupoids():
        transitive = len(orbits_isotropy(G).representatives) == 1
        for x in G.objects:
            rep = regular_representation_faithful(G, x)
            assert rep.faithful == rep.orbit_covers_objects, (name, x)
            # orbit(x) covers all objects at any x exactly when transitive
            assert rep.orbit_covers_objects == transitive, (name, x)


@criterion(9, "morphism count equals the sum of |orbit|^2 * |isotropy| everywhere")
def test_09_morphism_count_identity():
    rng = random.Random(900)
    pool = [G for _, G in corpus_groupoids()]
    pool += [random_transformation_groupoid(rng) for _ in range(100)]
    for G in pool:
        validate_groupoid(G)
        prof = algebra_profile(G)
        assert prof.matches_morphism_count
        assert prof.total_dim == len(G.morphisms)
        assert prof.total_dim == sum(b[1] ** 2 * b[2] for b in prof.blocks)


@criterion(10, "affine-line module strata: isotropy dimensions 0/1/2, "
               "middle isotropy is the translation direction")
def test_10_axb_module_strata():
    strat = stratify_module(catalog.axb_tautological_module())
    layers = {(s.orbit_dim, s.isotropy_dim) for s in strat.strata}
    assert layers == {(2, 0), (1, 1), (0, 2)}
    middle = next(s for s in strat.strata if s.isotropy_dim == 1)
    assert middle.isotropy_basis == ((Q(0), Q(1)),)
    top = next(s for s in strat.strata if s.orbit_dim == 2)
    assert top.open_layer


@criterion(11, "numeric guardrails: eig residuals within 1e-8, float weights 1 +- sqrt 2")
def test_11_numeric_guardrails():
    rng = random.Random(1100)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
        # certifies every eigenpair residual <= 1e-8 * ||A||, raising otherwise
        vals = eigenvalues_numeric(a, tol=1e-8)
        assert len(vals) == n
    # the weight search's float fallback, the one float path left
    ws = algebra_roots(catalog.irrational_spectrum_algebra())
    nonzero = sorted(w.re[0] for w in ws if not w.exact and not w.is_zero())
    assert len(nonzero) == 2
    for got, want in zip(nonzero, (1 - math.sqrt(2), 1 + math.sqrt(2))):
        assert abs(got - want) <= 1e-8
