"""Oracles for groupoid axioms, pullback isomorphisms, and bimodule checks.

Reference values, computed by hand from the action tables:
- sign flip of Z/2 on {-1, 0, 1}: 6 morphisms, orbits {-1, 1} and {0} with
  isotropy orders 1 and 2, algebra blocks 4 + 2, ideal chain (4, 6);
- Z/4 on {0, 1} by parity shift: one orbit, isotropy {0, 2} of order 2,
  single block of dimension 2^2 * 2 = 8, two dual classes;
- S3 on {0, 1, 2}: 18 morphisms, one orbit, isotropy of order 2.
"""
import dataclasses
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from dense_reference import (
    is_abelian,
    rank_kernel,
    ref_action_from_json,
    ref_action_make,
    ref_build_pullback,
    ref_classify,
    ref_composable_pairs,
    ref_hom,
    ref_into,
    ref_label_ids,
    ref_out_of,
    ref_pullback_isomorphism_verify,
    ref_square_pullback_verify,
    ref_transformation_labels,
    ref_validate_groupoid,
    validate_group,
)

from liegrpd import groupoid_ids, groupoids
from liegrpd.catalog import (
    GROUPOID_CATALOG,
    negation_action,
    negation_groupoid,
    s3_natural_action,
    s3_natural_groupoid,
    z4_parity_action,
    z4_parity_groupoid,
)
from liegrpd.exact import Matrix
from liegrpd.groupoids import (
    AxiomError,
    BimoduleReport,
    FiniteGroup,
    FiniteGroupAction,
    FiniteGroupoid,
    NotInvariant,
    action_from_json,
    action_to_json,
    algebra_profile,
    build_pullback,
    canonical_sections,
    classify,
    equivalence_bimodule_verify,
    group_bundle,
    groupoid_from_json,
    groupoid_to_json,
    orbits_isotropy,
    pair_groupoid,
    piecewise_decompose,
    pullback_isomorphism_verify,
    random_permutation_group,
    random_transformation_groupoid,
    reduce_invariant,
    regular_representation_faithful,
    transformation_groupoid,
    validate_groupoid,
)


class TestGroups:
    def test_cyclic(self):
        G = FiniteGroup.cyclic(6)
        validate_group(G)
        assert G.order == 6 and G.op(4, 5) == 3 and G.inv(2) == 4
        assert is_abelian(G) and G.conjugacy_class_count() == 6

    def test_symmetric(self):
        G = FiniteGroup.symmetric(3)
        validate_group(G)
        assert G.order == 6
        assert not is_abelian(G)
        assert G.conjugacy_class_count() == 3  # id, transpositions, 3-cycles
        a, b = (1, 0, 2), (0, 2, 1)
        assert G.op(a, b) == (1, 2, 0)  # apply b first, then a

    def test_from_permutations_closure(self):
        G = FiniteGroup.from_permutations([(1, 2, 0)], 3)
        validate_group(G)
        assert G.order == 3

    def test_bad_generator(self):
        with pytest.raises(AxiomError):
            FiniteGroup.from_permutations([(0, 0, 1)], 3)

    def test_negative_degree_refused_and_zero_is_trivial(self):
        with pytest.raises(ValueError, match="n >= 0"):
            FiniteGroup.from_permutations([], -1)
        G = FiniteGroup.from_permutations([], 0)
        validate_group(G)
        assert G.elements == ((),)

    def test_a_group_document_is_built_only_at_its_table_order(self):
        for n in range(1, 7):
            order = len(FiniteGroup.symmetric(n).elements)
            for doc in ({"family": "cyclic", "n": order}, {"family": "symmetric", "n": n}):
                assert groupoids.group_from_json(doc, order).order == order
                for rows in (order - 1, order + 1):
                    with pytest.raises(AxiomError, match="action table has wrong shape"):
                        groupoids.group_from_json(doc, rows)
        # a permutation closure stops as it passes the row count
        s3 = {"family": "permutations", "n": 3, "generators": [[1, 2, 0], [1, 0, 2]]}
        assert groupoids.group_from_json(s3, 6).order == 6
        with pytest.raises(AxiomError, match="action table has wrong shape"):
            groupoids.group_from_json(s3, 5)


def _generated(group):
    """The elements reached from the identity by multiplying by generators."""
    seen, frontier = {group.identity}, [group.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for s in group.generators:
                b = group.op(a, s)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def _table(group):
    """mult[a][b], the id of ab, from `multiply` on every pair of ids."""
    ids = np.arange(group.order)
    return group.multiply(ids.repeat(group.order), np.tile(ids, group.order)).reshape(
        group.order, group.order).tolist()


class TestGenerators:
    """Each factory's generators close to its element set."""

    def test_cyclic_and_symmetric(self):
        for group in [FiniteGroup.cyclic(n) for n in range(1, 9)] + [
            FiniteGroup.symmetric(n) for n in range(1, 7)
        ]:
            assert set(group.generators) <= set(group.elements)
            assert _generated(group) == set(group.elements), group.name
        assert len(FiniteGroup.symmetric(5).generators) == 2

    def test_random_from_permutations(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(1, 6)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
            group = FiniteGroup.from_permutations(gens, n)
            assert group.generators == tuple(gens)
            assert _generated(group) == set(group.elements)
            group = random_permutation_group(rng)
            assert _generated(group) == set(group.elements)

    def test_product_table_matches_op(self):
        """The products of every factory, composed on demand for every pair,
        index op(a, b) among the elements; a group made otherwise has none."""
        rng = random.Random(41)
        groups = [FiniteGroup.cyclic(n) for n in (1, 2, 7)]
        groups += [FiniteGroup.symmetric(n) for n in range(1, 6)]
        groups += [random_permutation_group(rng) for _ in range(20)]
        for group in groups:
            index = {e: i for i, e in enumerate(group.elements)}
            expected = [[index[group.op(a, b)] for b in group.elements]
                        for a in group.elements]
            assert _table(group) == expected, group.name
        assert s3_natural_groupoid().isotropy_group(0).multiply is None

    def test_permutation_table_on_sixteen_points(self):
        """Base-16 codes of 16 images would overflow int64; the table is
        exact: (0 1 ... 15), the reversal and their products (D16)."""
        n = 16
        shift = tuple((i + 1) % n for i in range(n))
        flip = tuple((n - 1 - i) for i in range(n))
        group = FiniteGroup.from_permutations([shift, flip], n)
        assert group.order == 2 * n
        index = {e: i for i, e in enumerate(group.elements)}
        assert _table(group) == [
            [index[group.op(a, b)] for b in group.elements] for a in group.elements
        ]
        far = FiniteGroup.from_permutations([tuple(range(1, 40)) + (0,)], 40)
        index = {e: i for i, e in enumerate(far.elements)}
        assert _table(far) == [
            [index[far.op(a, b)] for b in far.elements] for a in far.elements
        ]

    def test_table_compatible_on_a_subgroup_generator(self):
        """pi(g) = g on A3 and (0 1) o g on the odd coset is compatible on
        the 3-cycle, which generates A3 only; checked on S3's generators it
        is rejected with the exhaustive loop's witness."""
        group = FiniteGroup.symmetric(3)
        cycle, swap = (1, 2, 0), (1, 0, 2)
        even = {group.identity, cycle, group.op(cycle, cycle)}
        assert _generated(dataclasses.replace(group, generators=(cycle,))) == even
        twisted = {
            (g, x): (g if g in even else group.op(swap, g))[x]
            for g in group.elements for x in range(3)
        }
        with pytest.raises(AxiomError) as caught:
            FiniteGroupAction.make(group, range(3), twisted)
        assert _outcome(ref_action_make, group, range(3), twisted) == (
            "AxiomError", caught.value.args
        )


class TestActions:
    def test_validated_construction(self):
        A = negation_action()
        assert A.act(1, -1) == 1 and A.act(1, 0) == 0 and A.act(0, 1) == 1

    def test_incompatible_action_rejected(self):
        G = FiniteGroup.cyclic(4)
        # x -> x + g mod 3 is not an action of C4 on {0,1,2}: 4 !~ 0 mod 3
        with pytest.raises(AxiomError):
            FiniteGroupAction.make(G, (0, 1, 2), lambda g, x: (x + g) % 3)

    def test_identity_must_fix(self):
        G = FiniteGroup.cyclic(2)
        with pytest.raises(AxiomError):
            FiniteGroupAction.make(G, (0, 1), lambda g, x: 1 - x)


class TestGroupoidConstruction:
    def test_negation_counts(self):
        G = negation_groupoid()
        assert G.objects == (-1, 0, 1)
        assert len(G.morphisms) == 6
        validate_groupoid(G)

    def test_z4_counts(self):
        G = z4_parity_groupoid()
        assert len(G.morphisms) == 8
        validate_groupoid(G)

    def test_s3_counts(self):
        G = s3_natural_groupoid()
        assert len(G.morphisms) == 18
        validate_groupoid(G)

    def test_composition_convention(self):
        # (g2, g1.x) o (g1, x) = (g2 g1, x): apply the right factor first
        G = z4_parity_groupoid()
        first, second = (1, 0), (1, 1)  # 0 -> 1 -> 0
        assert G.source[second] == G.target[first]
        assert G.compose(second, first) == (2, 0)

    def test_pair_groupoid(self):
        P = pair_groupoid(("a", "b", "c"))
        validate_groupoid(P)
        assert len(P.morphisms) == 9
        c = classify(P)
        assert c.is_pair and c.is_transitive and c.is_principal
        assert not c.is_group_bundle

    def test_group_bundle(self):
        B = group_bundle(
            {"x": FiniteGroup.cyclic(2), "y": FiniteGroup.cyclic(3)}, ("x", "y")
        )
        validate_groupoid(B)
        assert len(B.morphisms) == 5
        c = classify(B)
        assert c.is_group_bundle and not c.is_transitive and c.orbit_count == 2

    def test_tampered_composition_caught(self):
        G = negation_groupoid()
        key = next(G.composable_pairs())
        # replace one product by a morphism with the wrong endpoints
        other = next(m for m in G.morphisms if G.source[m] != G.source[G.compose(*key)])
        broken = FiniteGroupoid(
            G.objects, G.morphisms, G.source, G.target,
            lambda g, h: other if (g, h) == key else G.compose(g, h),
            G.identities, G.inverses,
        )
        with pytest.raises(AxiomError):
            validate_groupoid(broken)


def _tampered_s3():
    """s3_natural with one product g o z replaced by the other arrow with its
    endpoints, for z an arrow out of the orbit representative."""
    G = s3_natural_groupoid()
    rep = orbits_isotropy(G).representatives[0]
    z = next(m for m in G.out_of[rep] if G.target[m] != rep)
    g = next(
        m for m in G.out_of[G.target[z]]
        if G.target[m] not in (rep, G.target[z])
    )
    gz = G.compose(g, z)
    wrong = next(k for k in G.hom(rep, G.target[g]) if k != gz)
    return FiniteGroupoid(
        G.objects, G.morphisms, G.source, G.target,
        lambda a, b: wrong if (a, b) == (g, z) else G.compose(a, b),
        G.identities, G.inverses,
    )


class TestVerifiersCanFail:
    """One wrong product with the right endpoints fails every verifier: the
    pullback and bimodule verifiers validate first, so they raise validate's
    associativity failure."""

    def test_validate_raises(self):
        with pytest.raises(AxiomError, match="associativity"):
            validate_groupoid(_tampered_s3())

    def test_pullback_not_ok(self):
        with pytest.raises(AxiomError, match="associativity"):
            pullback_isomorphism_verify(_tampered_s3())

    def test_bimodule_not_ok(self):
        with pytest.raises(AxiomError, match="associativity"):
            equivalence_bimodule_verify(_tampered_s3())

    def test_regrep_raises(self):
        rep = orbits_isotropy(s3_natural_groupoid()).representatives[0]
        with pytest.raises(AxiomError, match="left cancellation"):
            regular_representation_faithful(_tampered_s3(), rep)


class TestOrbitsAndReduction:
    def test_negation_orbits(self):
        rep = orbits_isotropy(negation_groupoid())
        assert rep.representatives == (-1, 0)
        assert rep.orbits == ((-1, 1), (0,))
        assert rep.isotropy_orders == (1, 2)

    def test_transitive_cases(self):
        for G, iso in [(z4_parity_groupoid(), 2), (s3_natural_groupoid(), 2)]:
            rep = orbits_isotropy(G)
            assert len(rep.representatives) == 1
            assert rep.isotropy_orders == (iso,)

    def test_reduce_invariant(self):
        G = negation_groupoid()
        R = reduce_invariant(G, {-1, 1})
        validate_groupoid(R)
        assert len(R.morphisms) == 4
        assert classify(R).is_pair  # free transitive Z/2 on two points

    def test_layers_keep_their_generators_for_lights_test(self):
        # natural S5 on 7 points, 5 and 6 fixed: three orbits
        G = transformation_groupoid(FiniteGroupAction.make(
            FiniteGroup.symmetric(5), range(7), lambda g, x: g[x] if x < 5 else x))
        moved = reduce_invariant(G, range(5))
        validate_groupoid(moved)
        # structural, like G: the row check of 120 elements, 2 generators
        # and 5 points
        assert moved.ids.associativity == ("structural", 1200)
        # the label-built copy: 10 generators (s, x), 120 arrows out of r(a)
        # and 120 into d(a); every triple would be 600 * 120 * 120, over the cap
        copy = dataclasses.replace(moved)
        validate_groupoid(copy)
        assert copy.ids.associativity == ("generators", 144_000)
        assert 600 * 120 * 120 > groupoids.TRIPLE_CAP
        for x in (5, 6):
            fixed = reduce_invariant(G, {x})
            validate_groupoid(fixed)
            assert fixed.ids.associativity == ("structural", 2 * 120)
            copy = dataclasses.replace(fixed)
            validate_groupoid(copy)
            assert copy.ids.associativity == ("generators", 2 * 120 * 120)
            assert len(fixed.morphisms) ** 3 == 1_728_000  # every triple composes

    def test_reduce_non_invariant_rejected(self):
        G = negation_groupoid()
        with pytest.raises(NotInvariant):
            reduce_invariant(G, {-1, 0})

    def test_classification_flags(self):
        c = classify(negation_groupoid())
        assert not c.is_group_bundle and not c.is_transitive
        assert not c.is_pair and not c.is_principal and c.orbit_count == 2
        c = classify(z4_parity_groupoid())
        assert c.is_transitive and not c.is_principal and not c.is_pair


class TestPullback:
    def test_sections_negation(self):
        G = negation_groupoid()
        theta, sigma = canonical_sections(G)
        assert theta == {-1: -1, 1: -1, 0: 0}
        assert sigma[-1] == G.identities[-1]
        assert sigma[1] == (1, 1)  # the flip 1 -> -1

    def test_pullback_counts_match_profile(self):
        for G in (negation_groupoid(), z4_parity_groupoid(), s3_natural_groupoid()):
            P = build_pullback(G)
            validate_groupoid(P)
            assert len(P.morphisms) == len(G.morphisms)

    def test_isomorphism_reports(self):
        for G in (
            negation_groupoid(),
            z4_parity_groupoid(),
            s3_natural_groupoid(),
            pair_groupoid((0, 1, 2, 3)),
        ):
            rep = pullback_isomorphism_verify(G)
            assert rep.ok, rep
            assert rep.bijective and rep.functorial and rep.round_trip
            assert rep.morphism_count == rep.pullback_count

    def test_bundle_is_its_own_pullback(self):
        B = group_bundle(
            {0: FiniteGroup.cyclic(3), 1: FiniteGroup.cyclic(2)}, (0, 1)
        )
        rep = pullback_isomorphism_verify(B)
        assert rep.ok


class TestBimodule:
    def test_reports(self):
        # |Z| = sum over orbits of |orbit| * |isotropy|
        for G, z_count in [
            (negation_groupoid(), 4),
            (z4_parity_groupoid(), 4),
            (s3_natural_groupoid(), 6),
        ]:
            rep = equivalence_bimodule_verify(G)
            assert rep.ok, rep
            assert dict(rep.checks) == {
                "actions-commute": True,
                "left-moment-onto": True,
                "right-moment-onto": True,
                "left-free-transitive": True,
                "right-free-transitive": True,
            }
            assert rep.element_count == z_count

    def test_z_size_formula(self):
        # Z collects arrows out of the representatives: sum |orbit| * |iso|
        G = negation_groupoid()
        rep = equivalence_bimodule_verify(G)
        orbs = orbits_isotropy(G)
        expected = sum(
            len(o) * n for o, n in zip(orbs.orbits, orbs.isotropy_orders)
        )
        assert rep.element_count == expected


class TestPiecewise:
    def test_negation_ideal_chain(self):
        rep = piecewise_decompose(negation_groupoid())
        assert rep.representatives == (-1, 0)
        assert rep.orbit_sizes == (2, 1)
        assert rep.ideal_dims == (4, 6)
        assert rep.layer_pullback_ok == (True, True)
        assert rep.total_morphisms == 6

    def test_transitive_single_layer(self):
        rep = piecewise_decompose(s3_natural_groupoid())
        assert rep.ideal_dims == (18,)
        assert rep.layer_pullback_ok == (True,)


class TestAlgebraProfile:
    def test_negation(self):
        p = algebra_profile(negation_groupoid())
        assert p.blocks == ((-1, 2, 1, 4, 1), (0, 1, 2, 2, 2))
        assert p.total_dim == 6 and p.matches_morphism_count
        assert p.dual_total == 3

    def test_z4_parity(self):
        p = algebra_profile(z4_parity_groupoid())
        assert p.blocks == ((0, 2, 2, 8, 2),)
        assert p.total_dim == 8 and p.matches_morphism_count
        assert p.dual_total == 2

    def test_s3(self):
        p = algebra_profile(s3_natural_groupoid())
        assert p.blocks == ((0, 3, 2, 18, 2),)
        assert p.matches_morphism_count

    def test_pair_is_single_full_block(self):
        p = algebra_profile(pair_groupoid((0, 1, 2)))
        assert len(p.blocks) == 1 and p.blocks[0][4] == 1
        assert p.total_dim == 9


class TestRegularRepresentation:
    def test_faithful_iff_orbit_covers(self):
        G = negation_groupoid()
        for x, expect in [(-1, False), (1, False), (0, False)]:
            rep = regular_representation_faithful(G, x)
            assert rep.faithful is expect
            assert rep.orbit_covers_objects is expect

    def test_transitive_always_faithful(self):
        for G in (z4_parity_groupoid(), s3_natural_groupoid(), pair_groupoid((0, 1))):
            for x in G.objects:
                rep = regular_representation_faithful(G, x)
                assert rep.faithful and rep.rank == len(G.morphisms)

    def test_rank_of_unfaithful_case(self):
        rep = regular_representation_faithful(negation_groupoid(), 1)
        # morphisms touching the orbit {-1, 1} act independently; the two
        # arrows fixing 0 act as zero
        assert rep.rank == 4


class TestRandomGroupoids:
    def test_thirty_random_instances(self):
        rng = random.Random(2026)
        for _ in range(30):
            G = random_transformation_groupoid(rng)
            validate_groupoid(G)
            assert pullback_isomorphism_verify(G).ok
            assert equivalence_bimodule_verify(G).ok
            assert algebra_profile(G).matches_morphism_count
            c = classify(G)
            single_full_block = (
                len(algebra_profile(G).blocks) == 1
                and algebra_profile(G).blocks[0][4] == 1
            )
            assert single_full_block == c.is_pair


def _reference_table(G, product):
    """Composition by the quadratic definition: every pair, kept iff d(g) = r(h)."""
    return {
        (g, h): product(g, h)
        for g in G.morphisms
        for h in G.morphisms
        if G.source[g] == G.target[h]
    }


def _reference_triples(G):
    return sum(
        1
        for g in G.morphisms
        for h in G.morphisms
        if G.source[g] == G.target[h]
        for k in G.morphisms
        if G.source[h] == G.target[k]
    )


def _generator_pairs(G):
    """The (g, a) of the structural mode: a a generator, g out of r(a)."""
    return sum(len(G.out_of.get(G.target[a], ())) for a in G.generators)


def _generator_triples(G):
    """The (g, a, k) of Light's test: a a generator, g out of r(a), k into d(a)."""
    return sum(
        len(G.out_of.get(G.target[a], ())) * len(G.into.get(G.source[a], ()))
        for a in G.generators
    )


def _reports(G):
    return (
        pullback_isomorphism_verify(G),
        equivalence_bimodule_verify(G),
        piecewise_decompose(G),
        algebra_profile(G),
    )


class TestComposablePairTables:
    """Products on the indexed composable pairs agree with the M^2 scan, and a
    JSON round trip through explicit tables gives the same groupoid."""

    def _check(self, G, product):
        products = {pair: G.compose(*pair) for pair in G.composable_pairs()}
        assert list(products.items()) == list(_reference_table(G, product).items())
        index = {m: i for i, m in enumerate(G.morphisms)}
        H = groupoid_from_json(groupoid_to_json(G))
        assert H.objects == G.objects and H.morphisms == tuple(range(len(index)))
        assert list(H.composable_pairs()) == [
            (index[g], index[h]) for g, h in products
        ]
        for (g, h), gh in products.items():
            assert H.compose(index[g], index[h]) == index[gh]
        assert _reports(H) == _reports(G)
        for x in G.objects:
            for y in G.objects:
                scan = tuple(
                    g for g in G.morphisms
                    if G.source[g] == x and G.target[g] == y
                )
                assert G.hom(x, y) == scan
        # a structural G counts the pairs of its row check; the cap bracket
        # counts the triples of the mode that runs on its label-built copy
        if G.ids.structural:
            validate_groupoid(G)
            assert G.ids.associativity == ("structural", _generator_pairs(G))
            G = dataclasses.replace(G)
        mode = "exhaustive" if G.generators is None else "generators"
        triples = (_reference_triples if G.generators is None else _generator_triples)(G)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groupoids, "TRIPLE_CAP", triples)
            validate_groupoid(G)
            assert G.ids.associativity == (mode, triples)
            patch.setattr(groupoids, "TRIPLE_CAP", triples - 1)
            with pytest.raises(ValueError, match=f"^{triples} composable triples"):
                validate_groupoid(G)

    def test_fifty_random_actions_and_derived_groupoids(self):
        for seed in range(50):
            G = random_transformation_groupoid(random.Random(seed))
            # the builder draws its group first, so the same seed rebuilds it
            group = random_permutation_group(random.Random(seed))
            self._check(G, lambda g, h: (group.op(g[0], h[0]), h[1]))
            self._check(pair_groupoid(G.objects), lambda g, h: (g[0], h[1]))
            groups = {x: G.isotropy_group(x) for x in G.objects}
            self._check(
                group_bundle(groups, G.objects),
                lambda g, h: (g[0], groups[g[0]].op(g[1], h[1])),
            )
            self._check(
                build_pullback(G), lambda a, b: (a[0], G.compose(a[1], b[1]), b[2])
            )

    def test_natural_s5_validates_and_s6_is_refused_before_any_product(self):
        G = dataclasses.replace(_natural(5))  # label-built, so not structural
        validate_groupoid(G)
        # Light's test on the 10 generators: 10 * 120 * 120 triples, where
        # every triple would be 600 * 120 * 120
        assert len(G.morphisms) == 600 and G.ids.associativity == ("generators", 144_000)
        assert 600 * 120 * 120 > groupoids.TRIPLE_CAP
        S6 = _natural(6)
        calls = 0

        def counting(g, h):
            nonlocal calls
            calls += 1
            return S6.product(g, h)

        # 12 generators, each with 720 arrows out of its target and 720 into its source
        triples = 12 * 720 * 720
        assert triples > groupoids.TRIPLE_CAP
        with pytest.raises(ValueError, match=f"^{triples} composable triples exceed"):
            validate_groupoid(_with_product(S6, counting, keep_generators=True))
        assert calls == 0


class TestIndexAgainstLabelScan:
    """The arrow lists, hom-sets, composable pairs, classification and
    pullback read off the integer view are those of the label scans in
    `dense_reference`: the pullback's morphisms in the same order, with the
    same endpoints, identities, inverses and products."""

    def _check(self, G):
        assert G.out_of == ref_out_of(G) and G.into == ref_into(G)
        assert list(G.composable_pairs()) == ref_composable_pairs(G)
        for x in G.objects:
            for y in G.objects:
                assert G.hom(x, y) == ref_hom(G, x, y)
        assert classify(G) == ref_classify(G)
        P, R = build_pullback(G), ref_build_pullback(G)
        for name in ("objects", "morphisms", "source", "target", "identities", "inverses"):
            assert getattr(P, name) == getattr(R, name), name
        V = P.ids
        assert V.pair_products().tolist() == [
            V.index[R.product(a, b)] for a, b in ref_composable_pairs(R)
        ]

    def test_catalog_and_natural_s3_to_s5(self):
        # C2 over two objects has n^2 arrows and is no pair groupoid
        square = group_bundle({0: FiniteGroup.cyclic(2), 1: FiniteGroup.cyclic(2)}, (0, 1))
        for G in [make() for make in GROUPOID_CATALOG.values()] + [
                _natural(n) for n in (3, 4, 5)] + [square]:
            self._check(G)
            self._check(build_pullback(G))

    def test_fifty_random_actions_and_derived_groupoids(self):
        for seed in range(50):
            G = random_transformation_groupoid(random.Random(seed))
            groups = {x: G.isotropy_group(x) for x in G.objects}
            layers = [reduce_invariant(G, orbit) for orbit in orbits_isotropy(G).orbits]
            for H in (G, pair_groupoid(G.objects), group_bundle(groups, G.objects),
                      *layers, build_pullback(G)):
                self._check(H)


class TestJson:
    def test_action_round_trip(self):
        for make in (negation_action, z4_parity_action, s3_natural_action):
            A = make()
            doc = action_to_json(A)
            B = action_from_json(doc)
            assert B.points == A.points
            assert B.table == A.table

    def test_action_rejects_bad_table(self):
        doc = action_to_json(z4_parity_action())
        doc["table"][1] = [0, 0]  # g=1 would merge the two points
        with pytest.raises(AxiomError):
            action_from_json(doc)

    def test_groupoid_round_trip(self):
        G = negation_groupoid()
        doc = groupoid_to_json(G)
        H = groupoid_from_json(doc)
        assert len(H.morphisms) == 6
        assert algebra_profile(H).blocks == ((-1, 2, 1, 4, 1), (0, 1, 2, 2, 2))
        assert pullback_isomorphism_verify(H).ok

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            action_from_json({"kind": "groupoid"})
        with pytest.raises(ValueError):
            groupoid_from_json({"kind": "group_action"})


def _reference_bimodule_verify(G):
    """The bimodule checks as exhaustive loops that compose every product
    they compare; `equivalence_bimodule_verify` must report the same."""
    theta, _ = canonical_sections(G)
    reps = sorted(set(theta.values()), key=list(G.objects).index)
    rep_set = set(reps)
    Z = tuple(g for g in G.morphisms if G.source[g] in rep_set)
    iso = {rep: G.hom(rep, rep) for rep in reps}
    failure = ()

    def check_commute():
        for z in Z:
            for g in G.out_of[G.target[z]]:
                for b in iso[G.source[z]]:
                    left_then_right = G.compose(G.compose(g, z), b)
                    right_then_left = G.compose(g, G.compose(z, b))
                    if left_then_right != right_then_left:
                        return False, ("commute", g, z, b)
        return True, ()

    def check_left_moment_onto():
        targets = {G.target[z] for z in Z}
        ok = targets == set(G.objects)
        return ok, () if ok else ("left-moment", tuple(set(G.objects) - targets))

    def check_right_moment_onto():
        sources = {G.source[z] for z in Z}
        ok = sources == set(reps)
        return ok, () if ok else ("right-moment", tuple(set(reps) - sources))

    def check_left_free_transitive():
        for rep in reps:
            zs = G.out_of[rep]
            for z1 in zs:
                for z2 in zs:
                    arrows = [
                        g
                        for g in G.hom(G.target[z1], G.target[z2])
                        if G.compose(g, z1) == z2
                    ]
                    if len(arrows) != 1:
                        return False, ("left-torsor", z1, z2, len(arrows))
        return True, ()

    def check_right_free_transitive():
        for y in G.objects:
            zs = [z for z in G.into[y] if G.source[z] in rep_set]
            for z1 in zs:
                for z2 in zs:
                    if G.source[z1] != G.source[z2]:
                        return False, ("right-torsor-sources", z1, z2)
                    arrows = [
                        b for b in iso[G.source[z1]] if G.compose(z1, b) == z2
                    ]
                    if len(arrows) != 1:
                        return False, ("right-torsor", z1, z2, len(arrows))
        return True, ()

    checks = (
        ("actions-commute", check_commute),
        ("left-moment-onto", check_left_moment_onto),
        ("right-moment-onto", check_right_moment_onto),
        ("left-free-transitive", check_left_free_transitive),
        ("right-free-transitive", check_right_free_transitive),
    )
    results = []
    for name, fn in checks:
        ok, wit = fn()
        results.append((name, ok))
        if not ok and not failure:
            failure = wit
    return BimoduleReport(
        all(ok for _, ok in results), tuple(results), len(Z), failure
    )


def _with_product(G, product, keep_generators=False):
    return FiniteGroupoid(
        G.objects, G.morphisms, G.source, G.target, product,
        G.identities, G.inverses, generators=G.generators if keep_generators else None,
    )


def _tampered_copies(G, rng):
    """G with one product g o z, z out of an orbit representative, replaced
    by another arrow with the same endpoints, by any arrow, and by a label
    that is no morphism (same shape, so the product rules used here still apply)."""
    reps = set(orbits_isotropy(G).representatives)
    pairs = [(g, z) for g, z in G.composable_pairs() if G.source[z] in reps]
    swappable = [
        (g, z) for g, z in pairs if len(G.hom(G.source[z], G.target[g])) > 1
    ]
    replacements = []
    if swappable:
        key = rng.choice(swappable)
        right = G.compose(*key)
        other = rng.choice([k for k in G.hom(G.source[key[1]], G.target[key[0]])
                            if k != right])
        replacements.append((key, other))
    key = rng.choice(pairs)
    replacements.append((key, rng.choice(G.morphisms)))
    key = rng.choice(pairs)
    replacements.append((key, G.compose(*key)[:-1] + ("nowhere",)))
    for key, value in replacements:
        wrong_within_hom = value != G.compose(*key) and value in G.hom(
            G.source[key[1]], G.target[key[0]]
        )
        yield _with_product(
            G, lambda g, h, key=key, value=value:
            value if (g, h) == key else G.compose(g, h)
        ), wrong_within_hom


def _expected(T, reference, outcome):
    """Assert that `outcome`, a pullback or bimodule verifier's on T, is
    validate's exception where validate refuses T, else the outcome of the
    `reference` loop; return whether validate refused T."""
    refusal = _outcome(validate_groupoid, T)
    assert outcome == (_outcome(reference, T) if refusal == "None" else refusal)
    return refusal != "None"


class TestBimoduleAgainstReference:
    """The bimodule verifier reports exactly what the exhaustive loops
    report, witnesses included, on valid groupoids, and refuses a tampered
    copy that is no groupoid exactly as validate does."""

    def test_fifty_seeds_unaltered_and_tampered(self):
        rng = random.Random(6)
        refused = 0
        for seed in range(50):
            G = random_transformation_groupoid(random.Random(seed))
            for H in (G, build_pullback(G), pair_groupoid(G.objects)):
                assert repr(equivalence_bimodule_verify(H)) == repr(
                    _reference_bimodule_verify(H)
                )
                for T, wrong_within_hom in _tampered_copies(H, rng):
                    outcome = _outcome(equivalence_bimodule_verify, T)
                    was_refused = _expected(T, _reference_bimodule_verify, outcome)
                    # a wrong arrow within the right hom-set breaks left cancellation
                    assert was_refused or not wrong_within_hom
                    refused += was_refused
        assert refused >= 300

    def test_natural_s5_product_count(self):
        G = transformation_groupoid(
            FiniteGroupAction.make(
                FiniteGroup.symmetric(5), range(5), lambda g, x: g[x]
            )
        )
        calls = 0

        def counting(g, h):
            nonlocal calls
            calls += 1
            return G.product(g, h)

        # the label-built copy with its 10 generators (s, x) validates by
        # Light's test, which composes the 600 * 120 composable pairs once
        T = _with_product(G, counting, keep_generators=True)
        validate_groupoid(T)
        assert calls == 72_000 and T.ids.associativity[0] == "generators"
        calls = 0
        report = equivalence_bimodule_verify(T)
        assert report.ok and report.element_count == 120
        # 2 per generator for the Schreier generators, then |Z| * (the 2
        # generators out of r(z) + the Schreier generators at d(z)), where
        # the label loops composed 120 * (120 + 24)
        schreier = len(T.ids.schreier[0])
        assert calls == 2 * 10 + 120 * (2 + schreier) < 17_280


def _outcome(fn, *args):
    """repr of fn(*args), or the type and args of the exception it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, never swallowed
        return type(exc).__name__, exc.args


class TestPullbackAgainstReference:
    """The pullback verifier reports exactly what the verifier that composed
    every product through the pullback reported, witnesses included, on
    valid groupoids, and refuses a tampered copy that is no groupoid
    exactly as validate does."""

    def test_fifty_seeds_unaltered_and_tampered(self):
        rng = random.Random(13)
        within = refused = 0
        for seed in range(50):
            G = random_transformation_groupoid(random.Random(seed))
            for H in (G, build_pullback(G), pair_groupoid(G.objects)):
                assert repr(pullback_isomorphism_verify(H)) == repr(
                    ref_pullback_isomorphism_verify(H)
                )
                for T, wrong_within_hom in _tampered_copies(H, rng):
                    outcome = _outcome(pullback_isomorphism_verify, T)
                    was_refused = _expected(T, ref_pullback_isomorphism_verify, outcome)
                    if was_refused:
                        assert _outcome(equivalence_bimodule_verify, T) == outcome
                    within += wrong_within_hom
                    refused += wrong_within_hom and was_refused
        # the pullback is built with T's own product, so a wrong product can
        # be consistent with it: the pullback checks alone passed 33 of these
        # 79 tampered copies, and validation refuses every one
        assert refused == within == 79

    def test_images_outside_the_isotropy(self):
        """k o e, for e an identity and k a loop at its object, replaced by
        an arrow v with other endpoints: the product leaves Hom(y, y), so
        the verifier refuses it with validate's witness (k, e, v) before
        any Phi(g) is formed."""
        for seed in (11, 16):
            P = build_pullback(random_transformation_groupoid(random.Random(seed)))
            for y in P.objects:
                e = P.identities[y]
                for k in P.hom(y, y):
                    for v in P.morphisms:
                        if k == e or P.source[v] == P.target[v] == y:
                            continue
                        T = _with_product(
                            P, lambda g, h, v=v, key=(k, e): v if (g, h) == key
                            else P.compose(g, h)
                        )
                        refusal = ("AxiomError", ("composite has wrong endpoints", (k, e, v)))
                        assert _outcome(pullback_isomorphism_verify, T) == refusal
                        assert _outcome(validate_groupoid, T) == refusal

    def test_tampered_s3_witness(self):
        T = _tampered_s3()
        outcome = _outcome(pullback_isomorphism_verify, T)
        assert outcome[1][0] == "associativity fails"
        assert outcome == _outcome(validate_groupoid, T) == _outcome(ref_validate_groupoid, T)


def _tampered_sections(G, rng):
    """G with one identity replaced by another arrow, and with one inverse
    replaced by another arrow of the right hom-set, by any arrow, and by a
    label that is no morphism; products stay G's."""
    x = rng.choice(G.objects)
    others = [k for k in G.morphisms if k != G.identities[x]]
    if others:
        yield dataclasses.replace(G, identities={**G.identities, x: rng.choice(others)})
    g = rng.choice(G.morphisms)
    within = [k for k in G.hom(G.target[g], G.source[g]) if k != G.inverses[g]]
    values = [rng.choice(within)] if within else []
    for value in values + [rng.choice(G.morphisms), "nowhere"]:
        yield dataclasses.replace(G, inverses={**G.inverses, g: value})


class TestPullbackAgainstSquareReference:
    """The pullback verifier's outcome, the report repr or the exception
    type and args, is that of the verifier that read Phi(g) o Phi(h) from a
    square of isotropy products on valid groupoids, and validate's on copies
    with one wrong product, identity or inverse that are no groupoid."""

    def _same(self, G, rng):
        assert _outcome(pullback_isomorphism_verify, G) == _outcome(ref_square_pullback_verify, G)
        failed = 0
        for T in [T for T, _ in _tampered_copies(G, rng)] + list(_tampered_sections(G, rng)):
            outcome = _outcome(pullback_isomorphism_verify, T)
            failed += _expected(T, ref_square_pullback_verify, outcome)
        return failed

    def test_catalog_and_natural_s3_to_s5(self):
        rng = random.Random(34)
        for G in [make() for make in GROUPOID_CATALOG.values()] + [_natural(n) for n in (3, 4, 5)]:
            self._same(G, rng)

    def test_fifty_seeds_with_pullbacks_and_pair_groupoids(self):
        rng = random.Random(35)
        failed = 0
        for seed in range(50):
            G = random_transformation_groupoid(random.Random(seed))
            for H in (G, build_pullback(G), pair_groupoid(G.objects)):
                failed += self._same(H, rng)
        assert failed >= 700


def _random_action_parts(rng):
    """(group, points, act) for a small action: a random permutation group or
    S3/S4 on their points plus fixed points, a cyclic group on its residues
    plus fixed points, or S3/S4 on themselves by conjugation."""
    kind = rng.randrange(4)
    if kind == 0:
        group = random_permutation_group(rng)
    elif kind == 1:
        group = FiniteGroup.cyclic(rng.randint(1, 8))
    else:
        group = FiniteGroup.symmetric(rng.randint(3, 4))
        if kind == 3:
            return group, list(group.elements), (
                lambda g, x: group.op(group.op(g, x), group.inv(g))
            )
    if isinstance(group.identity, tuple):
        n = len(group.identity)
        return group, list(range(n + rng.randint(0, 2))), (
            lambda g, x: g[x] if x < n else x
        )
    m = group.order
    return group, list(range(m + rng.randint(0, 2))), (
        lambda g, x: (x + g) % m if x < m else x
    )


def _action_outcome(fn, *args):
    """The elements, points, rows and labelled table of the action fn(*args),
    or the type and args of the exception it raises."""
    try:
        A = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, never swallowed
        return type(exc).__name__, exc.args
    return A.group.elements, A.points, A.rows, list(A.table.items())


class TestActionAgainstReference:
    """`FiniteGroupAction.make` accepts exactly the tables the exhaustive
    |G|^2 |X| loop accepts and raises the same AxiomError witness."""

    def test_random_actions_and_one_changed_entry(self):
        rng = random.Random(17)
        rejected = incompatible = 0
        for _ in range(120):
            group, points, act = _random_action_parts(rng)
            table = {(g, x): act(g, x) for g in group.elements for x in points}
            assert _outcome(FiniteGroupAction.make, group, points, table) == _outcome(
                ref_action_make, group, points, table
            )
            for _ in range(3):
                changed = dict(table)
                key = rng.choice(list(changed))
                changed[key] = rng.choice([y for y in points if y != changed[key]]
                                          or points)
                outcome = _outcome(FiniteGroupAction.make, group, points, changed)
                assert outcome == _outcome(ref_action_make, group, points, changed)
                if outcome[0] == "AxiomError":
                    rejected += 1
                    incompatible += outcome[1][0] == "action is not compatible"
        assert rejected >= 300 and incompatible >= 200

    def test_json_documents(self):
        docs = [
            # C4 acting on 3 points by x -> x + g mod 3
            {"kind": "group_action", "group": {"family": "cyclic", "n": 4},
             "points": [0, 1, 2],
             "table": [[(x + g) % 3 for x in range(3)] for g in range(4)]},
            # natural S4 with the last row repeated in place of the one before
            {"kind": "group_action", "group": {"family": "symmetric", "n": 4},
             "points": [0, 1, 2, 3],
             "table": [list(g) for g in FiniteGroup.symmetric(4).elements[:-2]]
             + [list(FiniteGroup.symmetric(4).elements[-1])] * 2},
        ]
        for doc in docs:
            with pytest.raises(AxiomError) as caught:
                action_from_json(doc)
            group = FiniteGroup.cyclic(4) if doc["group"]["family"] == "cyclic" \
                else FiniteGroup.symmetric(4)
            lookup = {(g, x): doc["table"][i][x] for i, g in enumerate(group.elements)
                      for x in doc["points"]}
            assert _outcome(ref_action_make, group, doc["points"], lookup) == (
                "AxiomError", caught.value.args
            )

    def test_valid_json_documents_keep_the_table_and_its_order(self):
        rng = random.Random(23)
        for _ in range(20):
            group, points, act = _random_action_parts(rng)
            action = action_from_json(json.loads(json.dumps(
                action_to_json(ref_action_make(group, points, act)))))
            expected = ref_action_make(action.group, points, act)
            assert list(action.table.items()) == list(expected.table.items())

    def test_documents_with_one_changed_entry(self):
        """One entry of a valid document replaced by a bool, a float, a
        string, a negative or an out-of-range index, or another point; the
        identity row permuted; two rows exchanged.  The outcome, the action
        or the exception type and args, is that of the old document path,
        and where the entries are indices, that of `ref_action_make`."""
        rng = random.Random(29)
        seen = set()
        for _ in range(150):
            group, points, act = _random_action_parts(rng)
            doc = json.loads(json.dumps(action_to_json(ref_action_make(group, points, act))))
            A = action_from_json(doc)
            group, points, table, n = A.group, A.points, doc["table"], len(A.points)
            changes = [True, False, 1.0, float(n), "0", -1, -n, n, n + 3, rng.randrange(n)]
            copies = []
            for value in changes:
                i, j = rng.randrange(len(table)), rng.randrange(n)
                copies.append([row[:j] + [value] + row[j + 1:] if k == i else row
                               for k, row in enumerate(table)])
            unit = group.elements.index(group.identity)
            if n > 1:
                moved = table[unit][1:] + table[unit][:1]
                copies.append([moved if k == unit else row for k, row in enumerate(table)])
            if len(table) > 2:
                i, j = rng.sample([k for k in range(len(table)) if k != unit], 2)
                copies.append([table[j] if k == i else table[i] if k == j else row
                               for k, row in enumerate(table)])
            for rows in copies:
                changed = {**doc, "table": rows}
                outcome = _action_outcome(action_from_json, changed)
                assert outcome == _action_outcome(ref_action_from_json, changed)
                if all(type(y) is int and 0 <= y < n for row in rows for y in row):
                    lookup = {(g, x): points[y] for g, row in zip(group.elements, rows)
                              for x, y in zip(points, row)}
                    assert outcome == _action_outcome(ref_action_make, group, points, lookup)
                seen.add(outcome[1][0] if isinstance(outcome[0], str) else "accepted")
        assert {"action table index True is not an integer", "action table index 1.0 is not "
                "an integer", "action table index '0' is not an integer", "identity moves a "
                "point", "action is not compatible", "accepted"} <= seen
        assert any(reason.startswith("action table index -1 is outside") for reason in seen)


class TestIdsFromRows:
    """A transformation groupoid's integer view, computed from the action's
    rows, is the one read off its labels; a layer that covers every object
    is the groupoid itself."""

    @staticmethod
    def _lists(G):
        V = G.ids
        return V.sources, V.targets, V.identities, V.inverses

    def _same_as_labels(self, A):
        """The transformation groupoid of A, once its labels are those built
        from A's labelled table and its view is the one read off them."""
        G = transformation_groupoid(A)
        assert (G.morphisms, G.source, G.target, G.identities, G.inverses) == \
            ref_transformation_labels(A)
        assert self._lists(G) == ref_label_ids(G)
        return G

    def test_natural_s3_to_s6(self):
        for n in (3, 4, 5, 6):
            G = self._same_as_labels(FiniteGroupAction.make(
                FiniteGroup.symmetric(n), range(n), lambda g, x: g[x]))
            assert reduce_invariant(G, G.objects) is G

    def test_random_actions(self):
        rng = random.Random(37)
        for _ in range(200):
            G = self._same_as_labels(FiniteGroupAction.make(*_random_action_parts(rng)))
            assert reduce_invariant(G, list(G.objects) + ["elsewhere"]) is G
            # a copy with replaced labels reads its view off those labels
            H = dataclasses.replace(G, inverses={**G.inverses})
            assert H.ids is not G.ids and self._lists(H) == self._lists(G)

    def test_piecewise_on_multi_orbit_actions(self):
        """Proper layers are full subgroupoids; the report equals that of
        the explicit-table copy, and its ideal dimensions count the arrows
        out of each union of orbits."""
        rng = random.Random(43)
        multi = 0
        for _ in range(60):
            G = transformation_groupoid(FiniteGroupAction.make(*_random_action_parts(rng)))
            orbits = orbits_isotropy(G).orbits
            multi += len(orbits) > 1
            report = piecewise_decompose(G)
            assert report == piecewise_decompose(groupoid_from_json(groupoid_to_json(G)))
            out = ref_out_of(G)
            assert report.ideal_dims == tuple(itertools.accumulate(
                sum(len(out[x]) for x in orbit) for orbit in orbits))
            for orbit in orbits:
                layer = reduce_invariant(G, orbit)
                assert (layer is G) == (len(orbit) == len(G.objects))
                assert layer.morphisms == tuple(g for g in G.morphisms if G.source[g] in orbit)
                assert self._lists(layer) == ref_label_ids(layer)
        assert multi >= 20


def _reference_regrep_rank(G, x):
    """Rank of the regular representation at x by `rank_kernel` on the
    Fraction 0/1 matrices, as the regular representation test computed it."""
    arrows = G.out_of.get(x, ())
    index = {a: i for i, a in enumerate(arrows)}
    n = len(arrows)
    rows = {g: [Fraction(0)] * (n * n) for g in G.morphisms}
    for v in arrows:
        for g in G.out_of[G.target[v]]:
            rows[g][index[G.compose(g, v)] * n + index[v]] = Fraction(1)
    if any(any(row) for row in rows.values()):
        return rank_kernel(Matrix(list(rows.values())))[0]
    return 0


class TestRegularRepresentationRank:
    def _natural(self, n):
        return transformation_groupoid(
            FiniteGroupAction.make(FiniteGroup.symmetric(n), range(n), lambda g, x: g[x])
        )

    def test_natural_s3_s4_every_object(self):
        for n in (3, 4):
            G = self._natural(n)
            for x in G.objects:
                assert regular_representation_faithful(G, x).rank == (
                    _reference_regrep_rank(G, x)
                )

    def test_random_actions_every_object(self):
        for seed in range(30):
            G = random_transformation_groupoid(random.Random(seed))
            for x in G.objects:
                assert regular_representation_faithful(G, x).rank == (
                    _reference_regrep_rank(G, x)
                )


def _natural(n):
    return transformation_groupoid(
        FiniteGroupAction.make(FiniteGroup.symmetric(n), range(n), lambda g, x: g[x])
    )


def _conjugation(n):
    group = FiniteGroup.symmetric(n)
    return transformation_groupoid(FiniteGroupAction.make(
        group, group.elements, lambda g, x: group.op(group.op(g, x), group.inv(g))
    ))


VERIFIERS = (
    (validate_groupoid, ref_validate_groupoid),
    (pullback_isomorphism_verify, ref_pullback_isomorphism_verify),
    (equivalence_bimodule_verify, _reference_bimodule_verify),
)


class TestVerifiersAgainstReferences:
    """Validate's outcome, the report or the exception type and args, is
    its reference loop's on valid groupoids of every construction, their
    JSON round trips, and every tampered copy; the pullback and bimodule
    verifiers give their reference loops' outcome where validate passes,
    and validate's exact outcome where it refuses."""

    def _same(self, G):
        # the verifiers first, so that each validates G itself
        outcomes = {verify: _outcome(verify, G) for verify, _ in VERIFIERS[::-1]}
        refusal = outcomes[validate_groupoid]
        for verify, reference in VERIFIERS:
            expected = _outcome(reference, G)
            if refusal != "None" and verify is not validate_groupoid:
                expected = refusal
            assert outcomes[verify] == expected, verify.__name__

    def test_random_groupoids_round_trips_and_tampered_copies(self):
        rng = random.Random(29)
        for seed in range(50):
            G = random_transformation_groupoid(random.Random(seed))
            groups = {x: G.isotropy_group(x) for x in G.objects}
            for H in (G, build_pullback(G), pair_groupoid(G.objects),
                      group_bundle(groups, G.objects)):
                self._same(H)
                self._same(groupoid_from_json(groupoid_to_json(H)))
                for T, _ in _tampered_copies(H, rng):
                    self._same(T)

    def test_conjugation_actions(self):
        rng = random.Random(31)
        for n in (3, 4):
            G = _conjugation(n)
            assert len(orbits_isotropy(G).representatives) == {3: 3, 4: 5}[n]
            self._same(G)
            self._same(build_pullback(G))
            for T, _ in _tampered_copies(G, rng):
                self._same(T)

    def test_triple_cap(self):
        G = _natural(5)
        assert _outcome(validate_groupoid, G) == "None"
        assert G.ids.associativity == ("structural", 120 * 2 * 5)
        G = dataclasses.replace(G)
        assert _outcome(validate_groupoid, G) == "None"
        assert G.ids.associativity == ("generators", 144_000)
        # structural S6 validates; its label-built copy is refused at the cap
        S6 = _natural(6)
        assert _outcome(validate_groupoid, S6) == "None"
        assert S6.ids.associativity == ("structural", 720 * 2 * 6)
        assert _outcome(validate_groupoid, dataclasses.replace(S6)) == ("ValueError", (
            "6220800 composable triples exceed the generator-check cap of 2000000",))
        # without generators every triple counts, as in the reference
        T = _with_product(S6, S6.product)
        outcome = _outcome(validate_groupoid, T)
        assert outcome[0] == "ValueError"
        assert outcome == _outcome(ref_validate_groupoid, T)


class TestGeneratorAssociativity:
    """Light's test on the generators of a transformation groupoid gives the
    outcome of the exhaustive reference loop, the exception type and args
    with the witness included: on random actions and on their tampered
    copies with the generators kept.  Claimed generators that do not
    generate fall back to every triple."""

    def test_random_actions_and_tampered_copies(self):
        rng = random.Random(30)
        passed = caught = 0
        for seed in range(100):
            G = random_transformation_groupoid(random.Random(seed))
            # the bundle of its isotropy groups, all of whose morphisms are
            # claimed as generators, has hom-sets of unequal sizes
            groups = {x: G.isotropy_group(x) for x in G.objects}
            B = group_bundle(groups, G.objects)
            B = dataclasses.replace(B, generators=B.morphisms)
            copies = [dataclasses.replace(T, generators=H.generators)
                      for H in (G, B) for T, _ in _tampered_copies(H, rng)]
            for T in (G, B, *copies):
                outcome = _outcome(validate_groupoid, T)
                assert outcome == _outcome(ref_validate_groupoid, T)
                if outcome == "None":
                    assert T.ids.associativity == (
                        ("structural", _generator_pairs(T)) if T.ids.structural
                        else ("generators", _generator_triples(T)))
                    passed += 1
                else:
                    caught += outcome[1][:1] == ("associativity fails",)
        assert passed >= 200 and caught >= 20

    def test_generators_that_do_not_generate(self):
        G = dataclasses.replace(s3_natural_groupoid())  # label-built, so not structural
        assert G.ids.associativity is None and len(G.generators) == 6
        validate_groupoid(G)
        assert G.ids.associativity == ("generators", _generator_triples(G))
        # Light's test passes on identities alone, whose composites are
        # identities: the closure walk sends both tables to every triple
        identities = tuple(G.identities.values())
        H = dataclasses.replace(G, generators=identities)
        validate_groupoid(H)
        assert H.ids.associativity == ("exhaustive", _reference_triples(G))
        T = dataclasses.replace(_tampered_s3(), generators=identities)
        outcome = _outcome(validate_groupoid, T)
        assert outcome[1][0] == "associativity fails"
        assert outcome == _outcome(ref_validate_groupoid, T)
        # the true generators catch the same table
        T = dataclasses.replace(_tampered_s3(), generators=G.generators)
        assert _outcome(validate_groupoid, T) == outcome
        # a generator that is no morphism: every triple, from the start
        U = dataclasses.replace(G, generators=G.generators + ("nowhere",))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groupoids, "TRIPLE_CAP", _reference_triples(G) - 1)
            with pytest.raises(ValueError, match="exceed the exhaustive-check cap"):
                validate_groupoid(U)


class TestPullbackGenerators:
    """`build_pullback` hands Light's test the loops at each representative
    and the identity links to it; on pullbacks and their tampered copies
    with the generators kept, the outcome is the exhaustive reference's."""

    def test_natural_s5_decided_and_s6_refused_before_any_product(self):
        P = build_pullback(_natural(5))
        # 24 loops and 2 * 4 links, each with 120 arrows out of its target
        # and 120 into its source; every triple would be 600 * 120 * 120
        assert len(P.generators) == 32
        validate_groupoid(P)
        assert P.ids.associativity == ("generators", 460_800)
        S6 = build_pullback(_natural(6))
        calls = 0

        def counting(g, h):
            nonlocal calls
            calls += 1
            return S6.product(g, h)

        triples = (120 + 2 * 5) * 720 * 720
        with pytest.raises(ValueError, match=f"^{triples} composable triples exceed the generator"):
            validate_groupoid(_with_product(S6, counting, keep_generators=True))
        assert calls == 0

    def test_random_pullbacks_and_tampered_copies(self):
        rng = random.Random(33)
        caught = 0
        for seed in range(50):
            P = build_pullback(random_transformation_groupoid(random.Random(seed)))
            validate_groupoid(P)
            assert P.ids.associativity == ("generators", _generator_triples(P))
            for T, _ in _tampered_copies(P, rng):
                T = dataclasses.replace(T, generators=P.generators)
                outcome = _outcome(validate_groupoid, T)
                assert outcome == _outcome(ref_validate_groupoid, T)
                caught += outcome[1][:1] == ("associativity fails",)
        assert caught >= 10


class TestProductCallCounts:
    """Calls of a groupoid's product callable on label-built copies of
    natural S4: validate's, and each verifier's own once validate has
    passed, never more than the loops over labelled morphisms made."""

    # the label loops: validate 2,304 pairs twice, 4 per morphism and 3 per
    # composable triple; pullback Phi and its inverse (2 per morphism each
    # way), the isotropy products (36) and every composable pair; bimodule
    # 24 * (24 + 6)
    LABEL_LOOPS = {
        "validate_groupoid": 170_880,
        "pullback_isomorphism_verify": 2_916,
        "equivalence_bimodule_verify": 720,
    }
    # validate fills a table of the 2,304 composable pairs once
    VALIDATE = 2_304
    # the verifiers' own calls on 8 generators: the 8 (s, x), or, without
    # them, sigma(x) and sigma(x)^-1 for the 3 objects off the
    # representative and 2 loops that generate its isotropy S3; the
    # pullback makes 8 per morphism (the 4 law products, sigma(r g) o g,
    # mid(g) and the round trip's 2) and 2 per pair (g, a), a a generator;
    # the bimodule 2 per generator for the Schreier generators, then
    # |Z| = 24 times the 2 generators out of r(z) plus the 3 Schreier
    # generators at d(z)
    OWN = {
        "pullback_isomorphism_verify": 8 * 96 + 2 * 8 * 24,
        "equivalence_bimodule_verify": 2 * 8 + 24 * (2 + 3),
    }

    def test_natural_s4(self):
        G = _natural(4)
        for keep_generators in (False, True):
            for verify, _ in VERIFIERS[1:]:
                calls = 0

                def counting(g, h):
                    nonlocal calls
                    calls += 1
                    return G.product(g, h)

                T = _with_product(G, counting, keep_generators)
                validate_groupoid(T)
                assert calls == self.VALIDATE <= self.LABEL_LOOPS["validate_groupoid"]
                assert len(T.ids.gens) == 8
                calls = 0
                verify(T)
                name = verify.__name__
                assert calls == self.OWN[name] <= self.LABEL_LOOPS[name], name


class TestNaturalS6:
    """The verifiers on natural S6: 4,320 morphisms, 3.1M
    composable pairs, one orbit with isotropy S5."""

    @pytest.fixture(scope="class")
    def s6(self):
        return _natural(6)

    def test_pullback(self, s6):
        report = pullback_isomorphism_verify(s6)
        assert report.ok and report.pullback_count == 4320

    def test_bimodule(self, s6):
        report = equivalence_bimodule_verify(s6)
        assert report.ok and report.element_count == 720

    def test_decompose(self, s6):
        report = piecewise_decompose(s6)
        assert report.layer_pullback_ok == (True,) and report.ideal_dims == (4320,)


def _hom_swaps(G, rng):
    """A composable id pair (a, b) and another arrow v of the hom-set of a o b,
    or None when every hom-set holds one arrow."""
    V = G.ids
    pairs = [(a, b) for a, b in zip(*V.pairs(0, len(G.morphisms)))
             if len(G.hom(G.objects[V.sources[b]], G.objects[V.targets[a]])) > 1]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    ab = int(V.compose(np.array([a]), np.array([b]))[0])
    hom = G.hom(G.objects[V.sources[b]], G.objects[V.targets[a]])
    return a, b, V.index[rng.choice([k for k in hom if V.index[k] != ab])]


class TestStructuralMode:
    """A transformation groupoid of the package's own groups, whose rows
    `_checked` passed, and each of its layers run in structural mode.  Their
    reports equal those of the label-built copy `dataclasses.replace(G)`,
    which validate decides by Light's test, apart from validate's mode;
    tampered rows never reach it, and tampered copies leave it and are caught."""

    VERIFIERS = (pullback_isomorphism_verify, equivalence_bimodule_verify, piecewise_decompose)

    def _same(self, G):
        C = dataclasses.replace(G)
        assert G.ids.structural and not C.ids.structural
        assert _outcome(validate_groupoid, G) == _outcome(validate_groupoid, C) == "None"
        assert G.ids.associativity == ("structural", _generator_pairs(G))
        assert C.ids.associativity[0] == "generators"
        for verify in self.VERIFIERS:
            assert verify(G) == verify(C), verify.__name__

    def test_natural_s3_to_s6(self):
        for n in (3, 4, 5):
            self._same(_natural(n))
        # each verifier validates the label-built copy of S6 first, which is
        # refused at the triple cap (see test_triple_cap); S6 itself passes
        S6 = _natural(6)
        refusal = ("ValueError", (
            "6220800 composable triples exceed the generator-check cap of 2000000",))
        for verify in self.VERIFIERS:
            assert _outcome(verify, dataclasses.replace(S6)) == refusal, verify.__name__
        assert pullback_isomorphism_verify(S6).ok and equivalence_bimodule_verify(S6).ok

    def test_random_actions_and_their_layers(self):
        rng = random.Random(47)
        multi = 0
        for _ in range(200):
            G = transformation_groupoid(FiniteGroupAction.make(*_random_action_parts(rng)))
            self._same(G)
            orbits = orbits_isotropy(G).orbits
            multi += len(orbits) > 1
            for orbit in orbits:
                self._same(reduce_invariant(G, orbit))
        assert multi >= 100

    def test_products_on_demand_and_schreier_generators(self):
        """With CHUNK at 4, a structural groupoid composes every product on
        demand, a few at a time, and generates each isotropy group by its
        Schreier generators, fewer than its loops in many; the reports stay
        those of the label-built copy."""
        rng = random.Random(61)
        fewer = 0
        for _ in range(100):
            G = transformation_groupoid(FiniteGroupAction.make(*_random_action_parts(rng)))
            verifiers = (pullback_isomorphism_verify, equivalence_bimodule_verify,
                         piecewise_decompose)
            expected = [verify(dataclasses.replace(G)) for verify in verifiers]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(groupoid_ids, "CHUNK", 4)
                assert G.ids.lookup() is None or len(G.morphisms) == 1
                assert [verify(G) for verify in verifiers] == expected
                fewer += sum(len(G.ids.schreier[x]) < len(ids) for x, ids in G.ids.loops.items())
        assert fewer >= 30

    def test_corrupted_views_fail_the_structural_checks(self):
        """Structural mode takes only associativity from construction: a
        structural view whose identity, inverse or one product g o a of two
        generators is corrupted in place is refused by validate's law check,
        which the pullback verifier runs too, or fails the pullback and
        bimodule checks, at every size of `lookup`."""
        for n in (3, 4, 5):
            G = _natural(n)
            G.ids.identities[0] = G.ids.identities[1]
            for check in (validate_groupoid, pullback_isomorphism_verify):
                with pytest.raises(AxiomError, match="identity law"):
                    check(G)
            G = _natural(n)
            G.ids.inverses[1] = G.ids.inverses[2]
            for check in (validate_groupoid, pullback_isomorphism_verify):
                with pytest.raises(AxiomError, match="inverse law"):
                    check(G)
            G = _natural(n)
            V = G.ids
            a = int(V.gens[0])
            g = next(int(k) for k in V.gens if V.sources[k] == V.targets[a])
            ga = int(V.compose(np.array([g]), np.array([a]))[0])
            v = next(k for k in V.out[0][V.sources[a]]
                     if V.targets[k] == V.targets[ga] and k != ga)
            compose = V.compose
            V.compose = lambda p, q: np.where((p == g) & (q == a), v, compose(p, q))
            assert validate_groupoid(G) is None  # associativity is not checked
            assert pullback_isomorphism_verify(G).failure[0] == "functor"
            assert not equivalence_bimodule_verify(G).ok

    def test_other_groups_and_copies_stay_out(self):
        group = FiniteGroup.symmetric(3)
        for other in (dataclasses.replace(group),
                      FiniteGroup("S3", group.elements, group.op, group.inv, group.identity,
                                  group.generators)):
            assert other.multiply is None
            G = transformation_groupoid(FiniteGroupAction.make(other, range(3), lambda g, x: g[x]))
            assert not G.ids.structural
            validate_groupoid(G)
            assert G.ids.associativity == ("generators", 6 * 6 * 6)
        A = FiniteGroupAction.make(group, range(3), lambda g, x: g[x])
        assert A.structural and not dataclasses.replace(A).structural
        assert not transformation_groupoid(dataclasses.replace(A)).ids.structural

    def test_tampered_rows_are_refused(self):
        rng = random.Random(53)
        refused = 0
        for _ in range(200):
            A = FiniteGroupAction.make(*_random_action_parts(rng))
            n = len(A.points)
            if n < 2:
                continue
            rows = [list(row) for row in A.rows]
            i, j = rng.randrange(len(rows)), rng.randrange(n)
            rows[i][j] = (rows[i][j] + rng.randrange(1, n)) % n
            with pytest.raises(AxiomError):
                groupoids._checked(A.group, A.points, rows)
            refused += 1
        assert refused >= 150

    def test_tampered_copies_leave_structural_mode_and_are_caught(self):
        rng = random.Random(59)
        caught = 0
        for _ in range(200):
            G = transformation_groupoid(FiniteGroupAction.make(*_random_action_parts(rng)))
            if len(G.morphisms) < 2:
                continue
            copies = []
            swap = _hom_swaps(G, rng)
            if swap:
                a, b, v = swap

                def compose(g, h, a=a, b=b, v=v, compose=G.compose_ids):
                    k = compose(g, h)
                    return np.where((g == a) & (h == b), v, k)

                copies.append(dataclasses.replace(G, compose_ids=compose))
            x = rng.choice(G.objects)
            copies.append(dataclasses.replace(G, identities={
                **G.identities, x: rng.choice([k for k in G.morphisms if k != G.identities[x]])}))
            g = rng.choice(G.morphisms)
            copies.append(dataclasses.replace(G, inverses={
                **G.inverses, g: rng.choice([k for k in G.morphisms if k != G.inverses[g]])}))
            for T in copies:
                assert not T.ids.structural
                with pytest.raises(AxiomError):
                    validate_groupoid(T)
                caught += 1
        assert caught >= 450


def _reference_decompose(G):
    """The piecewise report with each layer's pullback verdict taken from
    the exhaustive label loops of `ref_pullback_isomorphism_verify`."""
    orbits, out = orbits_isotropy(G), ref_out_of(G)
    layers = [reduce_invariant(G, orbit) for orbit in orbits.orbits]
    return groupoids.PiecewiseReport(
        orbits.representatives,
        tuple(map(len, orbits.orbits)),
        tuple(itertools.accumulate(sum(len(out.get(x, ())) for x in orbit)
                                   for orbit in orbits.orbits)),
        tuple(ref_pullback_isomorphism_verify(layer).ok for layer in layers),
        len(G.morphisms),
    )


class TestGeneratorPathAgainstExhaustive:
    """On valid groupoids that are not in structural mode, the pullback,
    bimodule and decomposition reports are those of the exhaustive label
    loops: label-built copies of random actions, their pullbacks, pair
    groupoids and isotropy bundles, the explicit-table round trip of each,
    and every layer `reduce_invariant` cuts from them.  Each groupoid is
    handed to the verifiers unvalidated."""

    def test_two_hundred_valid_groupoids_and_their_layers(self):
        seen = 0
        for seed in range(30):
            G = random_transformation_groupoid(random.Random(seed))
            groups = {x: G.isotropy_group(x) for x in G.objects}
            for make in (lambda: dataclasses.replace(G), lambda: build_pullback(G),
                         lambda: pair_groupoid(G.objects),
                         lambda: group_bundle(groups, G.objects)):
                for H in (make(), groupoid_from_json(groupoid_to_json(make()))):
                    assert not H.ids.structural
                    layers = [reduce_invariant(H, orbit) for orbit in orbits_isotropy(H).orbits]
                    for L in [H] + [L for L in layers if L is not H]:
                        assert pullback_isomorphism_verify(L) == ref_pullback_isomorphism_verify(L)
                        assert repr(equivalence_bimodule_verify(L)) == repr(
                            _reference_bimodule_verify(L))
                        assert piecewise_decompose(L) == _reference_decompose(L)
                        seen += 1
        assert seen >= 200
