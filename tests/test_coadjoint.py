"""Oracles for skew forms, isotropy and the open-component census.

Frozen values below were computed by hand from the structure constants:
for the ax+b algebra ([Y1,Y2] = Y2) the form is [[0, xi2], [-xi2, 0]] with
determinant xi2^2, so the nondegenerate set is two half-planes swapped by
negation; for the realified complex Borel algebra the determinant is
16(xi2^2 + xi4^2)^2, whose zero set has codimension two, so the
nondegenerate set is connected.
"""
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    COMPLEX_BOREL,
    DENSE_CATALOG,
    dense,
    det_exact,
    ref_conjugate,
    ref_frobenius_test,
    ref_lagrange_interpolate,
    ref_minus_one_probe,
    ref_sturm_root_count,
    upper,
)
from liegrpd import coadjoint
from liegrpd.catalog import (
    LIE_CATALOG,
    axb,
    axb_semidirect_plane,
    complex_borel,
    euclid2,
    filiform4,
    heisenberg,
    realified_borel,
)
from liegrpd.coadjoint import (
    ComponentCensus,
    _det_at,
    _segment_nondegenerate,
    bform,
    is_open_orbit,
    isotropy_algebra,
    minus_one_probe,
    open_component_census,
    orbit_dimension,
)
from liegrpd.exact import GaussInt, Matrix, gaussian, scalar_im, scalar_re, zi_parts
from liegrpd.lie import Subspace, ad_matrix, derived_series, from_brackets


class TestSkewForm:
    def test_axb_matrix(self):
        L = axb()
        b = bform(L, (Q(3), Q(5)))
        assert b.data == ((Q(0), Q(5)), (Q(-5), Q(0)))
        assert det_exact(b) == 25

    def test_heisenberg_matrix(self):
        L = heisenberg()
        b = bform(L, (Q(0), Q(0), Q(7)))
        assert b.data[0][1] == 7 and b.data[1][0] == -7
        assert all(b.data[i][2] == 0 and b.data[2][i] == 0 for i in range(3))

    def test_antisymmetry_in_point(self):
        L = realified_borel()
        xi = (Q(1), Q(-2), Q(3), Q(5))
        neg = tuple(-v for v in xi)
        b1, b2 = bform(L, xi), bform(L, neg)
        assert all(
            b1.data[i][j] == -b2.data[i][j] for i in range(4) for j in range(4)
        )

    def test_form_is_skew(self):
        for make in (axb, heisenberg, filiform4, realified_borel, euclid2):
            L = make()
            xi = tuple(Q(k + 1, 2) for k in range(L.dim))
            b = bform(L, xi)
            assert all(
                b.data[i][j] == -b.data[j][i]
                for i in range(L.dim)
                for j in range(L.dim)
            )

    def test_float_point(self):
        L = axb()
        with pytest.raises(TypeError):
            bform(L, (0.5, 2.0))

    def test_realified_borel_det_formula(self):
        L = realified_borel()
        for xi in [(1, 2, 3, 4), (0, 1, 0, 0), (5, -2, 7, 1), (1, 0, 1, 0)]:
            xi = tuple(Q(v) for v in xi)
            expected = 16 * (xi[1] ** 2 + xi[3] ** 2) ** 2
            assert det_exact(bform(L, xi)) == expected


class TestOrbitDimension:
    def test_axb(self):
        L = axb()
        assert orbit_dimension(L, (Q(1), Q(0))) == 0
        assert orbit_dimension(L, (Q(0), Q(1))) == 2
        assert is_open_orbit(L, (Q(0), Q(1)))
        assert not is_open_orbit(L, (Q(1), Q(0)))

    def test_heisenberg_never_open(self):
        L = heisenberg()
        assert orbit_dimension(L, (Q(1), Q(2), Q(3))) == 2
        assert orbit_dimension(L, (Q(1), Q(2), Q(0))) == 0
        assert not is_open_orbit(L, (Q(1), Q(2), Q(3)))

    def test_rank_is_even(self):
        import random

        rng = random.Random(7)
        for make in (axb, heisenberg, filiform4, realified_borel, euclid2):
            L = make()
            for _ in range(10):
                xi = tuple(Q(rng.randint(-9, 9)) for _ in range(L.dim))
                assert orbit_dimension(L, xi) % 2 == 0


class TestIsotropy:
    def test_heisenberg_generic(self):
        L = heisenberg()
        iso = isotropy_algebra(L, (Q(0), Q(0), Q(1)))
        assert iso.dim == 1
        assert iso.contains((Q(0), Q(0), Q(1)))

    def test_axb_points(self):
        L = axb()
        assert isotropy_algebra(L, (Q(0), Q(1))).dim == 0
        assert isotropy_algebra(L, (Q(1), Q(0))).dim == 2

    def test_isotropy_is_subalgebra(self):
        import random

        rng = random.Random(3)
        for make in (heisenberg, filiform4, realified_borel, euclid2):
            L = make()
            for _ in range(8):
                xi = tuple(Q(rng.randint(-5, 5)) for _ in range(L.dim))
                iso = isotropy_algebra(L, xi)
                for u in iso.rows:
                    for v in iso.rows:
                        assert iso.contains(L.bracket(u, v))

    def test_requires_exact_point(self):
        with pytest.raises(TypeError):
            isotropy_algebra(axb(), (0.5, 1.5))


@pytest.mark.parametrize("entry", [
    lambda L: ad_matrix(L, (Q(1), 0.5)),
    lambda L: L.bracket((0.5, 2.0), (Q(1), Q(0))),
    lambda L: L.bracket((1, 0), (Q(1, 2), 2.0)),
    lambda L: Matrix([[Q(1), 0.5], [0, 1]]),
    lambda L: bform(L, (Q(1), 0.5)),
    lambda L: orbit_dimension(L, (0.5, 1)),
    lambda L: Subspace.from_vectors(L.dim, [(1, 0.5)]),
], ids=["ad_matrix", "bracket-x", "bracket-y", "Matrix", "bform", "orbit_dimension",
        "Subspace"])
def test_float_point_is_refused_at_every_entry(entry):
    # `zi_rows` is the one gate into the integer side
    with pytest.raises(TypeError, match="must be exact, got float"):
        entry(axb())


class TestFrobenius:
    # the census's first kept sample is the open-orbit witness; with one
    # sample v and -v may stay in separate classes, so counts are lower bounds
    def test_axb_has_open_orbit(self):
        census = open_component_census(axb(), samples=1, seed=0)
        assert census.component_count >= 1
        assert det_exact(bform(axb(), census.representatives[0])) != 0

    def test_odd_dimension_never(self):
        for make in (heisenberg, euclid2):
            census = open_component_census(make(), samples=1, seed=0)
            assert census.component_count == 0 and census.representatives == ()

    def test_realified_borel(self):
        census = open_component_census(realified_borel(), samples=1, seed=1)
        assert census.component_count >= 1

    def test_filiform_never(self):
        # det of the 4x4 skew form vanishes identically (nilpotent, index 2)
        census = open_component_census(filiform4(), samples=2, seed=5)
        assert census.component_count == 0


class TestCensus:
    def test_axb_two_components_paired(self):
        census = open_component_census(axb(), samples=128)
        assert census.component_count == 2
        assert census.negation_pairing in (((0, 1), (1, 0)),)
        assert census.even
        assert census.exponential
        # the two components are the half planes xi2 > 0 and xi2 < 0
        signs = {1 if rep[1] > 0 else -1 for rep in census.representatives}
        assert signs == {1, -1}

    def test_heisenberg_empty(self):
        census = open_component_census(heisenberg(), samples=64)
        assert census.component_count == 0
        assert census.nondegenerate_samples == 0

    def test_euclid2_empty_and_not_exponential(self):
        census = open_component_census(euclid2(), samples=64)
        assert census.component_count == 0
        assert not census.exponential

    def test_realified_borel_connected(self):
        census = open_component_census(realified_borel(), samples=160)
        assert census.component_count == 1
        # connected census: the lone component is its own negation image
        assert census.negation_pairing == ((0, 0),)
        assert not census.even
        # evenness is not asserted here: the algebra is not exponential
        assert not census.exponential

    def test_no_sampling_without_open_orbit(self, monkeypatch):
        # odd dimension (heisenberg, e2) or a nonzero center (filiform4)
        # makes every skew form singular: Pf, computed once on the symbolic
        # form, is zero, so the sampler never starts
        def no_det(*args):
            raise AssertionError("sampler ran")

        def symbolic_only(rows, pfaffian_int=coadjoint.pfaffian_int):
            if any(type(x) is int and x for row in rows for x in row):
                no_det()
            return pfaffian_int(rows)

        monkeypatch.setattr(coadjoint, "_det_at", no_det)
        monkeypatch.setattr(coadjoint, "pfaffian_int", symbolic_only)
        for make in (heisenberg, filiform4, euclid2):
            census = open_component_census(make(), samples=64)
            assert census.component_count == 0
            assert census.nondegenerate_samples == 0
            assert census.notes[0].startswith("census from 0 nondegenerate")
            assert census.representatives == ()

    def test_census_deterministic(self):
        a = open_component_census(axb(), samples=96, seed=4)
        b = open_component_census(axb(), samples=96, seed=4)
        assert a == b

    def test_complex_field_rejected(self):
        with pytest.raises(ValueError):
            open_component_census(complex_borel())

    def test_components_never_mix_axb_signs(self):
        census = open_component_census(axb(), samples=128, seed=9)
        assert census.component_count == 2
        assert isinstance(census, ComponentCensus)
        assert sum(census.component_sizes) == census.nondegenerate_samples


nonzero = st.integers(-9, 9).filter(bool)
axb2_points = st.tuples(st.integers(-9, 9), nonzero, st.integers(-9, 9), nonzero)


class TestSegmentProbe:
    @settings(max_examples=60, deadline=None)
    @given(axb2_points, axb2_points)
    def test_axb_squared_joins_exactly_same_sign_quadrants(self, a, b):
        # (ax+b)^2 has det B = xi2^2 xi4^2: a segment between nondegenerate
        # points avoids the zero set iff it never changes the sign of xi2 or xi4
        L = from_brackets(4, {(0, 1): {1: 1}, (2, 3): {3: 1}})
        a, b = tuple(map(Q, a)), tuple(map(Q, b))
        same_quadrant = a[1] * b[1] > 0 and a[3] * b[3] > 0
        assert _segment_nondegenerate(L, a, b) is same_quadrant


# ---------------------------------------------------------------------------
# The dense determinant path the census ran on before its Pfaffian rewrite,
# kept as the reference for the sparse form, the Pfaffian probe and the census.


def dense_bform(t, xi):
    m = len(t)
    rows = []
    for j in range(m):
        row = []
        for k in range(m):
            acc = Q(0)
            for l in range(m):
                c = t[j][k][l]
                if c == 0:
                    continue
                acc = acc + c * xi[l]
            row.append(acc)
        rows.append(row)
    return Matrix(rows)


def reference_det_at(t, xi):
    return det_exact(dense_bform(t, xi))


def reference_segment(t, a, b):
    """det B interpolated from dim + 1 nodes; no Sturm root in [0, 1]."""
    m = len(t)
    pts = []
    for k in range(m + 1):
        s = Q(k, m)
        xi = tuple(aa + s * (bb - aa) for aa, bb in zip(a, b))
        d = reference_det_at(t, xi)
        if d == 0:
            return False
        pts.append((s, d))
    return ref_sturm_root_count(ref_lagrange_interpolate(pts), Q(0), Q(1)) == 0


AXB_SQUARED = {(0, 1): {1: 1}, (2, 3): {3: 1}}


def axb_squared():
    return from_brackets(4, AXB_SQUARED)


def _conjugate_case(t, seed):
    t = ref_conjugate(t, seed)
    return from_brackets(len(t), upper(t)), t


# each case is (algebra, its dense tensor); the tensor comes from the same
# brackets or from the dense reference builders, never from the algebra
DENSE = {name: t for name, (t, _, _) in DENSE_CATALOG.items()}
DENSE["axb^2"] = dense(4, AXB_SQUARED)
OPEN_ORBIT = {"axb": axb, "axb_semidirect_plane": axb_semidirect_plane,
              "realified_borel": realified_borel, "axb^2": axb_squared}
REFERENCE_CASES = {
    name: (lambda make=make, name=name: (make(), DENSE[name]))
    for name, make in dict(OPEN_ORBIT, heisenberg=heisenberg, filiform4=filiform4,
                           e2=euclid2).items()
}
REFERENCE_CASES.update(
    {f"{name}~{seed}": (lambda name=name, seed=seed: _conjugate_case(DENSE[name], seed))
     for name in OPEN_ORBIT for seed in range(3)}
)


def _random_point(rng, dim, spread=3, denominators=(1,)):
    return tuple(Q(rng.randint(-spread, spread), rng.choice(denominators)) for _ in range(dim))


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
class TestAgainstDenseReference:
    def test_sparse_bform_equals_dense(self, name):
        (L, t), rng = REFERENCE_CASES[name](), random.Random(name)
        for _ in range(10):
            xi = _random_point(rng, L.dim, 9, (1, 2, 3, 7))
            assert bform(L, xi) == dense_bform(t, xi)

    def test_pfaffian_squared_is_scaled_det(self, name):
        # _det_at is Pf(D B_xi) at an integer point: its square is D^dim det B_xi
        import math
        (L, t), rng = REFERENCE_CASES[name](), random.Random(name)
        d = math.lcm(*(c.denominator for plane in t for row in plane for c in row))
        for _ in range(20):
            xi = _random_point(rng, L.dim)
            assert _det_at(L, xi) ** 2 == d**L.dim * reference_det_at(t, xi)

    def test_probe_agrees_on_random_point_pairs(self, name):
        (L, t), rng = REFERENCE_CASES[name](), random.Random(name)
        for trial in range(40):
            denominators = (1,) if trial < 30 else (1, 2, 5)
            a = _random_point(rng, L.dim, denominators=denominators)
            b = _random_point(rng, L.dim, denominators=denominators)
            expected = reference_segment(t, a, b)
            assert _segment_nondegenerate(L, a, b) is expected
            if trial < 30:  # the census passes the endpoint Pfaffians along
                ends = (_det_at(L, a), _det_at(L, b))
                assert _segment_nondegenerate(L, a, b, ends) is expected

    @pytest.mark.parametrize("seed", range(3))
    def test_census_equals_reference_census(self, name, seed, monkeypatch):
        # the probe path, which a certified Pfaffian would skip
        monkeypatch.setattr(coadjoint, "certify_pfaffian", lambda P, n: None)
        L, t = REFERENCE_CASES[name]()
        census = open_component_census(L, samples=10, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(coadjoint, "_det_at", lambda _, xi: reference_det_at(t, xi))
            patch.setattr(coadjoint, "_segment_nondegenerate",
                          lambda _, a, b, ends=None: reference_segment(t, a, b))
            reference = open_component_census(L, samples=10, seed=seed)
        assert census == reference
        assert all(type(x) is Q for rep in census.representatives for x in rep)


def axb_power(k):
    return from_brackets(2 * k, {(2 * i, 2 * i + 1): {2 * i + 1: 1} for i in range(k)})


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES) + ["axb^3", "axb^4"])
def test_census_first_sample_is_the_reference_witness(name):
    # the first draw with Pf != 0 is the census's first kept sample, and it
    # stays the first representative through every merge
    L = axb_power(int(name[-1])) if name in ("axb^3", "axb^4") else REFERENCE_CASES[name]()[0]
    for seed in range(3):
        for samples in (1, 2, 8):
            census = open_component_census(L, samples=samples, seed=seed)
            witness = census.representatives[0] if census.representatives else None
            assert (census.component_count > 0, witness) == ref_frobenius_test(L, seed=seed)


def _coadjoint_action(L, x, xi, transpose=True):
    """Ad*(exp x) xi = xi o exp(-ad x), the point exp(-ad x)^T xi, exactly:
    ad x is nilpotent, so exp(-ad x) is the finite sum of (-ad x)^k / k!.
    transpose=False applies exp(-ad x) itself, the mistake the check must
    catch."""
    m, ad = L.dim, ad_matrix(L, x).data
    term = [[Q(int(i == j)) for j in range(m)] for i in range(m)]
    exp = [row[:] for row in term]
    for k in range(1, m + 1):
        term = [[-sum((row[l] * ad[l][j] for l in range(m)), Q(0)) * Q(1, k)
                 for j in range(m)] for row in term]
        exp = [[a + b for a, b in zip(r, t)] for r, t in zip(exp, term)]
    assert all(c == 0 for row in term for c in row), "ad x is not nilpotent"
    if transpose:
        exp = [list(col) for col in zip(*exp)]
    return tuple(sum((a * b for a, b in zip(row, xi)), Q(0)) for row in exp)


# the Q and Q(i) catalog algebras and the conjugated dense cases
AD_STAR_CASES = dict(LIE_CATALOG, **{name: (lambda case=case: case()[0])
                                     for name, case in REFERENCE_CASES.items() if "~" in name})


@pytest.mark.parametrize("name", sorted(AD_STAR_CASES))
def test_coadjoint_action_keeps_the_orbit_dimension(name):
    # x in [L, L], where ad x is nilpotent because L is solvable
    L, rng = AD_STAR_CASES[name](), random.Random(name)
    derived, moved = derived_series(L)[1].rows, False
    for _ in range(4):
        coeffs = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in derived]
        x = [sum((a * c for a, c in zip(coeffs, col)), Q(0)) for col in zip(*derived)]
        xi = _random_point(rng, L.dim, denominators=(1, 2, 3))
        eta = _coadjoint_action(L, x, xi)
        assert orbit_dimension(L, eta) == orbit_dimension(L, xi), (x, xi)
        moved |= eta != xi
    assert moved or name == "heisenberg"  # heisenberg's [L, L] is its center


def test_the_ad_star_check_catches_a_missing_transpose():
    # heisenberg is nilpotent, so ad Y1 is nilpotent though Y1 is not in [L, L]
    L, x, xi = heisenberg(), (Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(1))
    assert _coadjoint_action(L, x, xi) == (0, 0, 1)
    assert orbit_dimension(L, _coadjoint_action(L, x, xi)) == orbit_dimension(L, xi) == 2
    assert orbit_dimension(L, _coadjoint_action(L, x, xi, transpose=False)) == 0


def test_integer_tensor_over_the_gaussian_rationals():
    """A Q(i) algebra's integer tensor is D times its brackets, with int or
    GaussInt constants and D the least positive integer making them so."""
    assert complex_borel().integer_tensor == ((0, 1, ((1, 2),)),)
    L = from_brackets(4, {(0, 1): {2: gaussian(Q(1, 2), Q(1, 3)), 3: Q(-3, 7)},
                          (0, 2): {3: gaussian(0, Q(-2, 5))}}, field="Qi")
    assert L.integer_tensor == ((0, 1, ((2, GaussInt(105, 70)), (3, -90))),
                                (0, 2, ((3, GaussInt(0, -84)),)))
    for L in (complex_borel(), L):
        consts = [c for _, _, terms in L.brackets for _, c in terms]
        d = math.lcm(*(x.denominator for c in consts for x in (scalar_re(c), scalar_im(c))))
        assert [(j, k, [(l, gaussian(*zi_parts(c))) for l, c in terms])
                for j, k, terms in L.integer_tensor] == [
            (j, k, [(l, d * c) for l, c in terms]) for j, k, terms in L.brackets]
    for xi in [(Q(1), Q(2)), (gaussian(1, 1), gaussian(2, -3)), (gaussian(0, 1), Q(-5, 3))]:
        assert bform(complex_borel(), xi) == dense_bform(COMPLEX_BOREL, xi)


class TestProbeShortcuts:
    """The sign gate and the interior nodes decide without interpolating."""

    @pytest.fixture(autouse=True)
    def no_interpolation(self, monkeypatch):
        def boom(*args):
            raise AssertionError("probe interpolated")

        monkeypatch.setattr(coadjoint, "newton_interpolate", boom)

    def test_endpoints_of_opposite_sign(self):
        # Pf on (ax+b)^2 is xi2 xi4 (coordinates numbered from 1); the only
        # interior node, the midpoint, has the sign of the first endpoint
        assert not _segment_nondegenerate(axb_squared(), (0, 1, 0, 3), (0, 1, 0, -1))

    def test_interior_sign_change(self):
        # on (ax+b)^3, Pf = xi2 xi4 xi6 runs (1 - 5t)(1 - 2t) from 1 to 4 and
        # is negative at the node t = 1/3
        L = from_brackets(6, {(0, 1): {1: 1}, (2, 3): {3: 1}, (4, 5): {5: 1}})
        assert not _segment_nondegenerate(L, (0, 1, 0, 1, 0, 1), (0, -4, 0, -1, 0, 1))


class TestMinusOneProbe:
    def test_euclid2_rotation_witness(self):
        probe = minus_one_probe(euclid2())
        assert probe.found
        assert probe.t_label.endswith("pi")
        assert probe.eigenvalue == -1

    def test_exponential_algebras_have_no_witness(self):
        for make in (heisenberg, axb, filiform4):
            probe = minus_one_probe(make())
            assert not probe.found

    def test_realified_borel_witness_along_imaginary_direction(self):
        # ad(iH) rotates span{E, iE} with eigenvalues +/- 2i, so
        # exp((pi/2) ad(iH)) has eigenvalue e^{i pi} = -1
        probe = minus_one_probe(realified_borel())
        assert probe.found
        assert probe.direction == (Q(0), Q(0), Q(1), Q(0))
        assert probe.t_label == "(4/8)pi"
        assert probe.eigenvalue == -1

    @pytest.mark.parametrize("seed", range(4))
    def test_verdicts_match_the_spectral_oracle(self, seed):
        # exponential algebras have no witness; e2 and realified_borel have
        # the witnesses of the 50-digit oracle, at the exact eigenvalue -1
        witnessed = (euclid2, realified_borel)
        for make in (axb, heisenberg, filiform4, axb_semidirect_plane, complex_borel) + witnessed:
            probe = minus_one_probe(make(), seed=seed)
            assert probe.found == (make in witnessed)
            assert probe == ref_minus_one_probe(make(), seed=seed)
