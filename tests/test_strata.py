"""Oracles for ideal flags, jump indices, and orbit-dimension layers.

Hand-computed reference values: for the Heisenberg algebra the flag is
span{Y3} < span{Y3,Y2} < g, the generic jump set is {2,3} and its stratum is
exactly {xi3 != 0}; for the dim-4 filiform algebra the flag inserts Y2 before
Y1, the generic jump set is {2,4} (attained when xi4 != 0), and {3,4} appears
on the lower-dimensional slice xi4 = 0, xi3 != 0.
"""
import itertools
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    DenseMatrix,
    basis_vector,
    matrix_inverse,
    rank_kernel,
    ref_adapted_columns,
    ref_coadjoint_stratification,
    ref_is_ideal,
    ref_jump_indices,
    ref_rref,
    ref_sample_points,
)
from liegrpd.catalog import (
    LIE_CATALOG,
    abelian,
    axb,
    axb_tautological_module,
    complex_heisenberg,
    euclid2,
    filiform4,
    heisenberg,
    realified_heisenberg,
)
from liegrpd.coadjoint import bform, integer_bform
from liegrpd.exact import Matrix, rref_int
from liegrpd.lie import (
    Subspace,
    ad_matrix,
    adjoint_module,
    algebra_from_json,
    center_of,
    coadjoint_module,
    from_brackets,
)
from liegrpd import strata
from liegrpd.strata import (
    _adapted_columns,
    _certify_tables,
    _integer_tables,
    _line_key,
    ascending_central_series,
    coadjoint_stratification,
    index_order_leq,
    jordan_holder_flag,
    jump_indices,
    orbit_tangent_rank,
    point_isotropy,
    stratify_module,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "scripts"))
import cli_digest  # noqa: E402


def span(dim, *vecs):
    return Subspace.from_vectors(dim, [tuple(Q(x) for x in v) for v in vecs])


class TestFlags:
    def test_heisenberg_ascending_series(self):
        chain = ascending_central_series(heisenberg())
        assert [s.dim for s in chain] == [0, 1, 3]
        assert chain[1] == span(3, (0, 0, 1))

    def test_filiform_ascending_series(self):
        chain = ascending_central_series(filiform4())
        assert [s.dim for s in chain] == [0, 1, 2, 4]
        assert chain[1] == span(4, (0, 0, 0, 1))
        assert chain[2] == span(4, (0, 0, 1, 0), (0, 0, 0, 1))

    def test_heisenberg_flag_prefers_high_index(self):
        flag = jordan_holder_flag(heisenberg())
        assert [s.dim for s in flag] == [0, 1, 2, 3]
        assert flag[1] == span(3, (0, 0, 1))
        assert flag[2] == span(3, (0, 1, 0), (0, 0, 1))

    def test_filiform_flag(self):
        flag = jordan_holder_flag(filiform4())
        assert [s.dim for s in flag] == [0, 1, 2, 3, 4]
        assert flag[2] == span(4, (0, 0, 1, 0), (0, 0, 0, 1))
        assert flag[3] == span(4, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def test_abelian_flag(self):
        flag = jordan_holder_flag(abelian(3))
        assert [s.dim for s in flag] == [0, 1, 2, 3]
        assert flag[1] == span(3, (0, 0, 1))

    def test_non_nilpotent_rejected(self):
        with pytest.raises(ValueError):
            jordan_holder_flag(axb())
        with pytest.raises(ValueError):
            jordan_holder_flag(euclid2())


class TestJumpIndices:
    def test_heisenberg_generic(self):
        L = heisenberg()
        flag = jordan_holder_flag(L)
        assert jump_indices(L, flag, (Q(0), Q(0), Q(1))) == (2, 3)
        assert jump_indices(L, flag, (Q(5), Q(-7), Q(2))) == (2, 3)

    def test_heisenberg_degenerate(self):
        L = heisenberg()
        flag = jordan_holder_flag(L)
        assert jump_indices(L, flag, (Q(1), Q(2), Q(0))) == ()
        assert jump_indices(L, flag, (Q(0), Q(0), Q(0))) == ()

    def test_heisenberg_stratum_is_xi3_nonzero(self):
        L = heisenberg()
        flag = jordan_holder_flag(L)
        for p in itertools.product(range(-2, 3), repeat=3):
            xi = tuple(Q(v) for v in p)
            expected = (2, 3) if xi[2] != 0 else ()
            assert jump_indices(L, flag, xi) == expected

    def test_filiform_jump_sets(self):
        L = filiform4()
        flag = jordan_holder_flag(L)
        assert jump_indices(L, flag, (Q(0), Q(0), Q(0), Q(1))) == (2, 4)
        assert jump_indices(L, flag, (Q(0), Q(0), Q(1), Q(0))) == (3, 4)
        assert jump_indices(L, flag, (Q(3), Q(1), Q(2), Q(5))) == (2, 4)
        assert jump_indices(L, flag, (Q(1), Q(0), Q(0), Q(0))) == ()

    def test_jump_count_equals_rank(self):
        rng = random.Random(11)
        for make in (heisenberg, filiform4, abelian):
            L = make(4) if make is abelian else make()
            flag = jordan_holder_flag(L)
            for _ in range(25):
                xi = tuple(Q(rng.randint(-9, 9)) for _ in range(L.dim))
                jumps = jump_indices(L, flag, xi)
                rank, _ = rank_kernel(bform(L, xi))
                assert len(jumps) == rank


class TestIndexOrder:
    def test_reflexive(self):
        assert index_order_leq((2, 3), (2, 3))
        assert index_order_leq((), ())

    def test_generic_below_everything(self):
        assert index_order_leq((2, 4), (3, 4))
        assert index_order_leq((2, 4), ())
        assert not index_order_leq((3, 4), (2, 4))
        assert not index_order_leq((), (2, 4))

    def test_antisymmetric_on_observed_sets(self):
        sets = [(), (2, 3), (2, 4), (3, 4), (1, 2, 3, 4)]
        for e in sets:
            for f in sets:
                if e != f:
                    assert not (index_order_leq(e, f) and index_order_leq(f, e))


class TestCoadjointStratification:
    def test_heisenberg(self):
        s = coadjoint_stratification(heisenberg())
        assert s.flag_dims == (0, 1, 2, 3)
        assert s.generic_jump_set == (2, 3)
        assert s.generic_rank == 2
        assert s.exhaustive
        assert {x.jump_set for x in s.strata} == {(2, 3), ()}
        # grid {-2..2}^3: xi3 != 0 on 4/5 of the 125 points
        counts = {x.jump_set: x.sample_count for x in s.strata}
        assert counts[(2, 3)] == 100 and counts[()] == 25

    def test_filiform(self):
        s = coadjoint_stratification(filiform4())
        assert s.generic_jump_set == (2, 4)
        assert s.generic_rank == 2
        assert {x.jump_set for x in s.strata} == {(2, 4), (3, 4), ()}
        counts = {x.jump_set: x.sample_count for x in s.strata}
        assert counts[(2, 4)] == 500  # xi4 != 0: 4/5 of 625
        assert counts[(3, 4)] == 100  # xi4 = 0, xi3 != 0
        assert counts[()] == 25

    def test_generic_stratum_listed_first(self):
        s = coadjoint_stratification(filiform4())
        assert s.strata[0].jump_set == s.generic_jump_set

    def test_abelian_single_stratum(self):
        s = coadjoint_stratification(abelian(2))
        assert s.generic_jump_set == ()
        assert len(s.strata) == 1


class TestModuleStrata:
    def test_tangent_rank_and_isotropy_oracle(self):
        M = axb_tautological_module()
        assert orbit_tangent_rank(M, (Q(0), Q(0))) == 0
        assert orbit_tangent_rank(M, (Q(3), Q(0))) == 1
        assert orbit_tangent_rank(M, (Q(0), Q(2))) == 2
        assert orbit_tangent_rank(M, (Q(1), Q(1))) == 2
        # on the punctured first axis the stabilizer is the unipotent direction
        iso = point_isotropy(M, (Q(3), Q(0)))
        assert iso == span(2, (0, 1))

    def test_tautological_three_layers(self):
        s = stratify_module(axb_tautological_module())
        assert s.generic_dim == 2
        dims = [(x.orbit_dim, x.isotropy_dim) for x in s.strata]
        assert dims == [(2, 0), (1, 1), (0, 2)]
        counts = {x.orbit_dim: x.sample_count for x in s.strata}
        # grid {-2..2}^2: open where v2 != 0 (20 pts), axis 4 pts, origin 1
        assert counts == {2: 20, 1: 4, 0: 1}
        top = s.strata[0]
        assert top.open_layer
        assert not s.strata[1].open_layer
        assert s.strata[1].isotropy_basis == ((Q(0), Q(1)),)

    def test_rank_lower_semicontinuity_under_perturbation(self):
        M = axb_tautological_module()
        rng = random.Random(5)
        for _ in range(30):
            v = (Q(rng.randint(-5, 5)), Q(rng.randint(-5, 5)))
            d = orbit_tangent_rank(M, v)
            for k in range(2):
                for sgn in (1, -1):
                    w = tuple(
                        v[j] + Q(sgn, 16) if j == k else v[j] for j in range(2)
                    )
                    assert orbit_tangent_rank(M, w) >= d

    def test_adjoint_module_layers_match_bform_ranks(self):
        L = heisenberg()
        M = coadjoint_module(L)
        s = stratify_module(M)
        assert s.generic_dim == 2
        for stratum in s.strata:
            rank, _ = rank_kernel(bform(L, stratum.representative))
            assert stratum.orbit_dim == rank


# ---------------------------------------------------------------------------
# reference definitions kept as oracles for the one-elimination paths


def direct_sum(*algs):
    """Block-diagonal sum of algebras."""
    dim = sum(a.dim for a in algs)
    brackets, off = {}, 0
    for a in algs:
        for i, j, terms in a.brackets:
            brackets[(off + i, off + j)] = {off + k: c for k, c in terms}
        off += a.dim
    return from_brackets(dim, brackets)


def conjugate(L, seed):
    """L in the basis Y'_i = sum_a P[a][i] Y_a, P a seeded unimodular integer
    matrix (one elementary column operation per dimension): same algebra,
    dense structure tensor."""
    rng = random.Random(seed)
    n = L.dim
    p = [[Q(int(r == c)) for c in range(n)] for r in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for r in range(n):
            p[r][j] += c * p[r][i]
    P = Matrix(p)
    Pinv = matrix_inverse(P)
    cols = [P.column(i) for i in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            new = Pinv.apply(L.bracket(cols[i], cols[j]))
            coeffs = {k: c for k, c in enumerate(new) if c}
            if coeffs:
                brackets[(i, j)] = coeffs
    return from_brackets(n, brackets)


def _rank(rows):
    return len(ref_rref(rows)[0])


def reference_jump_indices(L, flag, xi):
    """j is a jump when g_j is not inside g_{j-1} + ker B_xi: the subspace-sum
    definition, by rank comparison."""
    _, kernel = rank_kernel(bform(L, xi))
    jumps = []
    for j in range(1, len(flag)):
        absorbed = list(kernel) + list(flag[j - 1].rows)
        if _rank(absorbed + list(flag[j].rows)) > _rank(absorbed):
            jumps.append(j)
    return tuple(jumps)


def reference_pivot_jump_indices(L, flag, xi):
    """The pivot columns of B_xi F by generic `Fraction` elimination, with the
    skew-form rank as cross-check."""
    adapted = []
    for lower, upper in zip(flag, flag[1:]):
        old = set(lower.pivots)
        adapted.append(next(r for r, p in zip(upper.rows, upper.pivots) if p not in old))
    b = bform(L, xi)
    _, pivots = ref_rref((DenseMatrix(b.data) @ DenseMatrix(adapted).transpose()).data)
    assert len(pivots) == len(ref_rref(b.data)[1])
    return tuple(p + 1 for p in pivots)


def rescale(L, factors):
    """L in the basis Y'_i = factors[i] Y_i: rational structure constants."""
    brackets = {}
    for i, j, terms in L.brackets:
        brackets[(i, j)] = {k: c * factors[i] * factors[j] / factors[k] for k, c in terms}
    return from_brackets(L.dim, brackets)


def reference_ascending_central_series(L):
    """z_{k+1} = kernel of (reduction mod z_k) o ad(Y_i), stacked over i."""
    m = L.dim
    ads = [DenseMatrix(ad_matrix(L, basis_vector(L, i)).data) for i in range(m)]
    chain = [Subspace.zero(m)]
    while True:
        cols = []
        for k in range(m):
            v = [Q(int(j == k)) for j in range(m)]
            for row in chain[-1].rows:
                pivot = next(i for i, x in enumerate(row) if x != 0)
                if v[pivot] != 0:
                    c = v[pivot] / row[pivot]
                    v = [a - c * b for a, b in zip(v, row)]
            cols.append(v)
        res = DenseMatrix([[cols[k][j] for k in range(m)] for j in range(m)])
        stacked = [row for a in ads for row in (res @ a).data]
        _, kernel = rank_kernel(Matrix(stacked))
        nxt = Subspace.from_vectors(m, kernel)
        if nxt.dim == chain[-1].dim:
            return tuple(chain)
        chain.append(nxt)
        if nxt.dim == m:
            return tuple(chain)


def _nilpotent_inputs():
    base = [heisenberg(), filiform4(), direct_sum(heisenberg(), filiform4())]
    return base + [conjugate(L, seed) for seed, L in enumerate(base, start=7)]


def _random_point(rng, dim):
    """Random rational point; each coordinate is zero half the time so that
    the lower strata are hit too."""
    return tuple(
        Q(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.5 else Q(0)
        for _ in range(dim)
    )


class TestOneEliminationAgainstReferences:
    def test_jump_sets_match_subspace_sum_definition(self):
        rng = random.Random(2024)
        seen = set()
        for L in _nilpotent_inputs():
            flag = jordan_holder_flag(L)
            for _ in range(100):
                xi = _random_point(rng, L.dim)
                jumps = jump_indices(L, flag, xi)
                assert jumps == reference_jump_indices(L, flag, xi)
                seen.add((L.dim, jumps))
        # the points reach more than the generic stratum of each algebra
        assert len(seen) >= 12

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.booleans(),
        st.lists(st.sampled_from((Q(1), Q(-1), Q(2), Q(1, 3), Q(-3, 2))), min_size=7, max_size=7),
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 1), st.integers(-9, 9), st.integers(1, 6)).map(
                    lambda t: Q(t[1], t[2]) if t[0] else Q(0)
                ),
                min_size=7, max_size=7,
            ),
            min_size=5, max_size=5,
        ),
    )
    def test_pivot_elimination_on_conjugates(self, seed, summed, factors, points):
        """Conjugates of filiform4 and heisenberg + filiform4, optionally
        rescaled to rational structure constants, at rational points."""
        base = direct_sum(heisenberg(), filiform4()) if summed else filiform4()
        L = conjugate(base, seed)
        if factors[0] != 1:
            L = rescale(L, factors)
        flag = jordan_holder_flag(L)
        columns = _adapted_columns(flag)
        for point in points:
            xi = tuple(point[:L.dim])
            expected = reference_pivot_jump_indices(L, flag, xi)
            assert jump_indices(L, flag, xi) == expected
            assert jump_indices(L, flag, xi, columns) == expected

    def test_central_series_and_center_match_residual_construction(self):
        cases = [make() for make in LIE_CATALOG.values()] + _nilpotent_inputs()
        cases += [conjugate(L, 3) for L in cases if L.field == "Q"]
        for L in cases:
            reference = reference_ascending_central_series(L)
            assert ascending_central_series(L) == reference
            assert center_of(L) == reference[min(1, len(reference) - 1)]


# ---------------------------------------------------------------------------
# the stratifications against the per-point loops they replace


def filiform5():
    """5-dim filiform algebra [Y1, Yi] = Y(i+1) for i = 2, 3, 4, [Y2, Y3] = Y5."""
    return from_brackets(5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}, (1, 2): {4: 1}})


def _is_nilpotent(L):
    return ascending_central_series(L)[-1].dim == L.dim


RATIONAL_FACTORS = (Q(1), Q(1, 2), Q(-3), Q(2, 3), Q(5, 4), Q(-1, 6), Q(7))


def _stratified_inputs():
    """(id, algebra): the catalog's nilpotent algebras, the complex
    Heisenberg algebra (over Q(i)) and its realification, heisenberg +
    filiform4, seeded unimodular conjugates, rational rescalings (D > 1) and
    filiform5, whose exhaustive grid has 3,125 points."""
    cases = [(n, make()) for n, make in LIE_CATALOG.items() if _is_nilpotent(make())]
    cases += [("complex_heisenberg", complex_heisenberg()),
              ("realified_heisenberg", realified_heisenberg())]
    cases.append(("heisenberg+filiform4", direct_sum(heisenberg(), filiform4())))
    cases += [(f"{n}~{seed}", conjugate(L, seed))
              for seed, (n, L) in enumerate(list(cases), start=3) if L.field == "Q"]
    cases += [(f"{n}*", rescale(L, RATIONAL_FACTORS)) for n, L in list(cases) if L.field == "Q"]
    cases += [("filiform5", filiform5()), ("filiform5*", rescale(filiform5(), RATIONAL_FACTORS))]
    return cases


STRATIFIED = _stratified_inputs()


class TestStratificationAgainstReference:
    @pytest.mark.parametrize("name,L", STRATIFIED, ids=[n for n, _ in STRATIFIED])
    def test_matches_per_point_reference(self, name, L):
        assert coadjoint_stratification(L) == ref_coadjoint_stratification(L)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_samples_match_reference(self, seed):
        L = conjugate(direct_sum(heisenberg(), filiform4()), seed)
        for samples in (1, 64, 300):
            got = coadjoint_stratification(L, samples=samples, seed=seed)
            assert got == ref_coadjoint_stratification(L, samples=samples, seed=seed)

    def test_every_flag_member_passes_the_fraction_ideal_check(self):
        """The per-step check on the inserted vector decides, by induction,
        that every member is an ideal: the `Fraction` check on all its rows
        agrees."""
        checked = 0
        for L in [L for _, L in STRATIFIED] + [make() for make in LIE_CATALOG.values()]:
            if _is_nilpotent(L):
                for member in jordan_holder_flag(L):
                    assert ref_is_ideal(L, member)
                    checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("make", [
        axb_tautological_module,
        lambda: coadjoint_module(heisenberg()),
        lambda: coadjoint_module(filiform4()),
        lambda: adjoint_module(filiform5()),
        lambda: coadjoint_module(direct_sum(heisenberg(), heisenberg())),
    ])
    def test_module_layers_match_per_point_ranks(self, make):
        M = make()
        pts, exhaustive = ref_sample_points(M.dim, 64, 3)
        buckets = {}
        for p in pts:
            buckets.setdefault(orbit_tangent_rank(M, p), []).append(p)
        s = stratify_module(M, samples=64, seed=3)
        assert s.exhaustive == exhaustive
        assert [x.orbit_dim for x in s.strata] == sorted(buckets, reverse=True)
        for x in s.strata:
            assert x.sample_count == len(buckets[x.orbit_dim])
            assert x.representative == buckets[x.orbit_dim][0]
            assert all(type(c) is Q for c in x.representative)


class TestLineCache:
    def test_line_key_is_primitive_with_positive_lead(self):
        assert _line_key((0, -2, 4)) == (0, 1, -2)
        assert _line_key((0, 2, -4)) == (0, 1, -2)
        assert _line_key((3, 0, -6)) == (1, 0, -2)
        assert _line_key((0, 0, 0)) == (0, 0, 0)

    @pytest.mark.parametrize("make,pairs", [(heisenberg, 50), (filiform4, 273), (filiform5, 1442)])
    def test_one_elimination_per_line(self, monkeypatch, make, pairs):
        """The grid {-2..2}^dim has 5^dim points on `pairs` lines through 0
        (the origin is its own line): one jump set, that is one elimination,
        per line, plus the one elimination of the tables' certificate (the
        rank of F).  The ideal checks of the flag eliminate nothing."""
        L = make()
        jumps, eliminations = [], []
        real_jumps, real_rref = strata.jump_indices, strata.rref_int
        monkeypatch.setattr(strata, "jump_indices", lambda *a: jumps.append(a) or real_jumps(*a))
        monkeypatch.setattr(strata, "rref_int", lambda rows: eliminations.append(1) or real_rref(rows))
        s = coadjoint_stratification(L)
        assert len(jumps) == pairs
        assert len(eliminations) == pairs + 1
        assert sum(x.sample_count for x in s.strata) == 5 ** L.dim


# ---------------------------------------------------------------------------
# one elimination per line: jump sets against the rank-checked reference


def _jump_inputs():
    """(id, algebra): heisenberg, filiform4, filiform5 (3,125 grid points),
    heisenberg + filiform4, the Q(i) nilpotent document of the digest's third
    ladder and a seeded unimodular conjugate of each Q-algebra."""
    base = [("heisenberg", heisenberg()), ("filiform4", filiform4()), ("filiform5", filiform5()),
            ("heisenberg+filiform4", direct_sum(heisenberg(), filiform4()))]
    cases = base + [("qi_nilpotent",
                     algebra_from_json(cli_digest.stratify_docs()[cli_digest.QI_NILPOTENT]))]
    return cases + [(f"{n}~{seed}", conjugate(L, seed))
                    for seed, (n, L) in enumerate(base, start=11)]


JUMP_INPUTS = _jump_inputs()


class TestJumpSetsAgainstRankCheckedReference:
    @pytest.mark.parametrize("name,L", JUMP_INPUTS, ids=[n for n, _ in JUMP_INPUTS])
    def test_every_sample_point(self, name, L):
        """At every point the stratification samples, the jump set is the
        reference's, and its size is the rank of the skew form there."""
        flag = jordan_holder_flag(L)
        columns = _adapted_columns(flag)
        tables = _integer_tables(L, columns)
        ref_columns = ref_adapted_columns(L, flag)
        pts, _ = ref_sample_points(L.dim, 400, 0)
        for xi in pts:
            jumps = jump_indices(L, flag, xi, columns, tables)
            assert jumps == ref_jump_indices(L, flag, xi, ref_columns)
            assert len(jumps) == len(rref_int(integer_bform(L, xi))[2])


class TestChecksCanFail:
    @pytest.mark.parametrize("make", [heisenberg, filiform4, filiform5, complex_heisenberg])
    def test_a_corrupted_table_entry_fails_the_certificate(self, make):
        L = make()
        columns = _adapted_columns(jordan_holder_flag(L))
        tables = _integer_tables(L, columns)
        corrupted = 0
        for l, prod in enumerate(tables):
            for n, (j, i, c) in enumerate(prod + [(0, 0, 0)]):
                bad = list(tables)
                bad[l] = prod[:n] + [(j, i, c + 1)] + prod[n + 1:]
                with pytest.raises(AssertionError, match="not the table of B_p times F"):
                    _certify_tables(L, columns, bad)
                corrupted += 1
        assert corrupted > L.dim

    def test_dependent_columns_fail_the_certificate(self):
        L = filiform4()
        columns = _adapted_columns(jordan_holder_flag(L))
        columns[-1] = columns[0]
        with pytest.raises(AssertionError, match="not a basis"):
            _integer_tables(L, columns)

    @pytest.mark.parametrize("make,terms", [
        (heisenberg, [[(1, 0, 0)]]),  # span{Y1}: [Y2, Y1] = -Y3
        (filiform4, [[(0, 0, 0, 1)], [(0, 1, 0, 0), (0, 0, 0, 1)]]),  # span{Y2, Y4}: [Y1, Y2] = Y3
    ])
    def test_a_non_ideal_flag_member_fails_its_step_check(self, monkeypatch, make, terms):
        """A central series with a term that is no ideal (monkeypatched)
        reaches the flag; the step that inserts its new vector must refuse it."""
        L = make()
        fake = (Subspace.zero(L.dim), *(span(L.dim, *t) for t in terms), Subspace.full(L.dim))
        monkeypatch.setattr(strata, "ascending_central_series", lambda _: fake)
        with pytest.raises(AssertionError, match="failed its ideal check"):
            jordan_holder_flag(L)
