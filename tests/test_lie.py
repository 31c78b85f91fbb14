import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    DENSE_CATALOG,
    DenseMatrix,
    RefSubspace,
    basis_vector,
    random_tensor,
    ref_adjoint_actions,
    ref_brackets,
    ref_lie_bracket,
    ref_reduce,
    ref_rref,
    realify_subspace,
)
from liegrpd.catalog import (
    LIE_CATALOG,
    abelian,
    axb,
    axb_semidirect_plane,
    axb_tautological_module,
    complex_borel,
    complex_heisenberg,
    euclid2,
    filiform4,
    heisenberg,
    realified_borel,
)
from liegrpd.exact import GaussInt, GaussianRational, Matrix, gaussian, matmul_int, zi, zi_rows
from liegrpd.lie import (
    AntisymmetryError,
    JacobiError,
    LieAlgebra,
    RepresentationError,
    Subspace,
    ad_matrix,
    adjoint_module,
    algebra_from_json,
    algebra_to_json,
    checked_subalgebra,
    coadjoint_module,
    derived_series,
    dual_module,
    from_brackets,
    make_module,
    realify,
    semidirect_sum,
    structure_series,
    subspace_bracket,
    validate_lie_algebra,
    vec_is_zero,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "scripts"))
import cli_digest  # noqa: E402


class TestValidation:
    def test_heisenberg_valid(self):
        L = heisenberg()
        assert L.dim == 3
        assert L.bracket(basis_vector(L, 0), basis_vector(L, 1)) == (Q(0), Q(0), Q(1))

    def test_axb_valid(self):
        L = axb()
        assert L.bracket(basis_vector(L, 0), basis_vector(L, 1)) == (Q(0), Q(1))

    def test_antisymmetry_error(self):
        # c[0][1][2] = 1 without the mirrored -1
        t = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        t[0][1][2] = 1
        with pytest.raises(AntisymmetryError):
            validate_lie_algebra(t)

    def test_jacobi_error_with_triple(self):
        # [Y1,Y2] = Y1 + Y3, [Y1,Y3] = Y2, [Y2,Y3] = Y1:
        # Jacobiator on (1,2,3) is [Y1+Y3, Y3] + [Y1, Y1] + [-Y2, Y2] = Y2
        with pytest.raises(JacobiError) as err:
            from_brackets(3, {(0, 1): {0: 1, 2: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}})
        assert err.value.args[1] == (0, 1, 2)
        assert err.value.args[2] == (Q(0), Q(1), Q(0))

    def test_so21_relabeled_heisenberg_is_actually_valid(self):
        # adding [Y1,Y3]=Y2 and [Y2,Y3]=Y1 to h3 still satisfies Jacobi
        L = from_brackets(3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}})
        assert not structure_series(L).is_solvable

    def test_brute_force_jacobi_oracle(self):
        # oracle: evaluate the Jacobiator on all index triples directly
        L = heisenberg()
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    ei, ej, ek = (basis_vector(L, x) for x in (i, j, k))
                    res = tuple(
                        a + b + c
                        for a, b, c in zip(
                            L.bracket(L.bracket(ei, ej), ek),
                            L.bracket(L.bracket(ej, ek), ei),
                            L.bracket(L.bracket(ek, ei), ej),
                        )
                    )
                    assert res == (Q(0),) * 3

    def test_random_antisymmetric_tensors_mostly_rejected(self):
        rng = random.Random(0)
        rejected = 0
        for _ in range(40):
            t = [[[Q(0)] * 3 for _ in range(3)] for _ in range(3)]
            for i in range(3):
                for j in range(i + 1, 3):
                    for k in range(3):
                        c = Q(rng.randint(-2, 2))
                        t[i][j][k] = c
                        t[j][i][k] = -c
            try:
                validate_lie_algebra(t)
            except JacobiError:
                rejected += 1
        assert rejected > 30


def dense_jacobi_witness(t):
    """First basis triple i < j < k whose Jacobiator is nonzero, with that
    Jacobiator, evaluated on the dense tensor; None for a Lie algebra."""
    n = len(t)

    def br(x, y):
        out = [Q(0)] * n
        for a, xa in enumerate(x):
            for b, yb in enumerate(y):
                if xa != 0 and yb != 0:
                    for c in range(n):
                        out[c] = out[c] + xa * yb * t[a][b][c]
        return out

    e = [[Q(int(a == b)) for b in range(n)] for a in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = [x + y + z for x, y, z in zip(
                    br(br(e[i], e[j]), e[k]), br(br(e[j], e[k]), e[i]),
                    br(br(e[k], e[i]), e[j]))]
                if any(x != 0 for x in res):
                    return (i, j, k), tuple(res)
    return None


class TestSparseJacobi:
    @pytest.mark.parametrize("seed", range(60))
    def test_first_witness_matches_the_dense_loop(self, seed):
        t, field = random_tensor(seed)
        n = len(t)
        expected = dense_jacobi_witness(t)
        if expected is None:
            assert validate_lie_algebra(t, field=field).dim == n
        else:
            with pytest.raises(JacobiError) as err:
                validate_lie_algebra(t, field=field)
            assert (err.value.args[1], err.value.args[2]) == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_first_witness_in_a_padded_table(self, seed):
        # the draw's basis scattered, in shuffled order, among idle basis vectors
        t, field = random_tensor(seed)
        n = len(t) + 5
        place = random.Random(seed).sample(range(n), len(t))
        big = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
        for a, plane in enumerate(t):
            for b, row in enumerate(plane):
                for c, x in enumerate(row):
                    big[place[a]][place[b]][place[c]] = x
        expected = dense_jacobi_witness(big)
        if expected is None:
            assert validate_lie_algebra(big, field=field).dim == n
        else:
            with pytest.raises(JacobiError) as err:
                validate_lie_algebra(big, field=field)
            assert (err.value.args[1], err.value.args[2]) == expected

    def test_sparse_tensor_lists_the_nonzero_constants(self):
        L, t = axb_semidirect_plane(), DENSE_CATALOG["axb_semidirect_plane"][0]
        dense = {(j, k, l): c for j, plane in enumerate(t)
                 for k, row in enumerate(plane) for l, c in enumerate(row) if c != 0 and j < k}
        sparse = {(j, k, l): c for j, k, terms in L.brackets for l, c in terms}
        assert sparse == dense
        assert [(j, k, list(terms)) for j, k, terms in L.integer_tensor] == [
            (j, k, [(l, int(2 * c)) for l, c in terms]) for j, k, terms in L.brackets]


class TestAdAndSeries:
    def test_ad_heisenberg(self):
        L = heisenberg()
        assert ad_matrix(L, basis_vector(L, 0)) == Matrix(
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
        )

    def test_ad_is_homomorphism(self):
        L = axb_semidirect_plane()
        rng = random.Random(1)
        for _ in range(10):
            x = tuple(Q(rng.randint(-3, 3)) for _ in range(L.dim))
            y = tuple(Q(rng.randint(-3, 3)) for _ in range(L.dim))
            lhs = DenseMatrix(ad_matrix(L, L.bracket(x, y)).data)
            ax, ay = (DenseMatrix(ad_matrix(L, v).data) for v in (x, y))
            assert lhs == ax @ ay - ay @ ax

    def test_heisenberg_series(self):
        rep = structure_series(heisenberg())
        assert rep.is_solvable and rep.is_nilpotent
        assert [s.dim for s in rep.derived_series] == [3, 1, 0]
        assert [s.dim for s in rep.lower_central_series] == [3, 1, 0]
        assert rep.center == Subspace.from_vectors(3, [(Q(0), Q(0), Q(1))])

    def test_axb_series(self):
        rep = structure_series(axb())
        assert rep.is_solvable and not rep.is_nilpotent
        assert [s.dim for s in rep.derived_series] == [2, 1, 0]
        assert [s.dim for s in rep.lower_central_series] == [2, 1]
        assert rep.center.dim == 0

    def test_e2_series(self):
        rep = structure_series(euclid2())
        assert rep.is_solvable and not rep.is_nilpotent
        assert rep.derived_series[1].dim == 2

    def test_filiform_series(self):
        rep = structure_series(filiform4())
        assert rep.is_nilpotent
        assert [s.dim for s in rep.lower_central_series] == [4, 2, 1, 0]

    def test_abelian(self):
        rep = structure_series(abelian(3))
        assert rep.is_nilpotent and rep.center.dim == 3

    def test_derived_is_ideal(self):
        for L in (heisenberg(), axb(), euclid2(), axb_semidirect_plane()):
            d1 = structure_series(L).derived_series[1]
            full = Subspace.full(L.dim)
            assert d1.contains_subspace(subspace_bracket(L, full, d1))


class TestModules:
    def test_representation_law_enforced(self):
        L = axb()
        bad = [Matrix([[1, 0], [0, 1]]), Matrix([[0, 1], [1, 0]])]
        with pytest.raises(RepresentationError):
            make_module(L, bad)

    @pytest.mark.parametrize("seed", range(200))
    def test_adjoint_law_fails_exactly_where_jacobi_does(self, seed):
        # ad is a representation iff Jacobi holds, so `from_brackets` refuses
        # every table whose adjoint actions would fail the law; the actions of
        # an unchecked table show the law still catching them
        t, field = random_tensor(seed)
        n = len(t)
        unchecked = LieAlgebra(n, tuple(f"Y{i+1}" for i in range(n)), ref_brackets(t), field)
        if dense_jacobi_witness(t) is None:
            L = validate_lie_algebra(t, field=field)
            make_module(L, adjoint_module(L).actions)
            make_module(unchecked, ref_adjoint_actions(t))
        else:
            with pytest.raises(JacobiError):
                validate_lie_algebra(t, field=field)
            with pytest.raises(RepresentationError):
                make_module(unchecked, ref_adjoint_actions(t))

    def test_adjoint_is_module(self):
        for L in (heisenberg(), axb(), euclid2(), filiform4(), realified_borel()):
            adjoint_module(L)

    def test_dual_dual_is_original(self):
        M = axb_tautological_module()
        assert dual_module(dual_module(M)).actions == M.actions

    def test_dual_passes_the_representation_law(self):
        """`dual_module` builds -a^T unchecked; the law check it no longer
        runs accepts every dual built here."""
        sums = [[realified_borel(), axb_semidirect_plane(), filiform4()]]
        modules = [adjoint_module(make()) for make in LIE_CATALOG.values()]
        modules += [axb_tautological_module()]
        for parts in sums:
            brackets, off = {}, 0
            for L in parts:
                for j, k, terms in L.brackets:
                    brackets[off + j, off + k] = {off + l: c for l, c in terms}
                off += L.dim
            modules.append(adjoint_module(from_brackets(off, brackets)))
        assert modules[-1].dim == 12
        for M in modules:
            dual = dual_module(M)
            assert dual.actions == tuple((-a).transpose() for a in M.actions)
            assert make_module(M.algebra, dual.actions) == dual

    def test_coadjoint_is_negative_transpose_of_adjoint(self):
        L = heisenberg()
        co = coadjoint_module(L)
        ad = adjoint_module(L)
        for a, b in zip(co.actions, ad.actions):
            assert a == (-b).transpose()


class TestSemidirect:
    def test_rank_one_action_gives_affine_line(self):
        L = abelian(1)
        M = make_module(L, [Matrix([[1]])])
        S = semidirect_sum(L, M)
        assert S.dim == 2
        assert S.bracket(basis_vector(S, 0), basis_vector(S, 1)) == (Q(0), Q(1))

    def test_axb_semidirect_plane(self):
        S = axb_semidirect_plane()
        assert S.dim == 4
        assert structure_series(S).is_solvable
        # [Y1, V1] = (1/2) V1
        assert S.bracket(basis_vector(S, 0), basis_vector(S, 2)) == (
            Q(0), Q(0), Q(1, 2), Q(0),
        )
        # [Y2, V2] = V1
        assert S.bracket(basis_vector(S, 1), basis_vector(S, 3)) == (
            Q(0), Q(0), Q(1), Q(0),
        )

    def test_module_part_is_abelian_ideal(self):
        S = axb_semidirect_plane()
        v = Subspace.from_vectors(4, [basis_vector(S, 2), basis_vector(S, 3)])
        assert subspace_bracket(S, v, v).dim == 0
        assert v.contains_subspace(subspace_bracket(S, Subspace.full(4), v))


class TestRealify:
    def test_realified_borel_structure(self):
        R = realified_borel()
        assert R.dim == 4 and R.field == "Q"
        rep = structure_series(R)
        assert rep.is_solvable and not rep.is_nilpotent
        # basis (H, E, iH, iE): [H, E] = 2E, [H, iE] = 2iE, [iH, E] = 2iE,
        # [iH, iE] = -2E
        assert R.bracket(basis_vector(R, 0), basis_vector(R, 1)) == (0, Q(2), 0, 0)
        assert R.bracket(basis_vector(R, 0), basis_vector(R, 3)) == (0, 0, 0, Q(2))
        assert R.bracket(basis_vector(R, 2), basis_vector(R, 1)) == (0, 0, 0, Q(2))
        assert R.bracket(basis_vector(R, 2), basis_vector(R, 3)) == (0, Q(-2), 0, 0)

    def test_realified_heisenberg_nilpotent(self):
        R = realify(complex_heisenberg())
        assert R.dim == 6
        rep = structure_series(R)
        assert rep.is_nilpotent
        assert rep.lower_central_series[1].dim == 2

    def test_realify_commutes_with_derived_series(self):
        for Lc in (complex_borel(), complex_heisenberg()):
            R = realify(Lc)
            d1_complex = structure_series(Lc).derived_series[1]
            d1_real = structure_series(R).derived_series[1]
            assert realify_subspace(d1_complex) == d1_real


class TestJson:
    def test_round_trip(self):
        for L in (heisenberg(), axb(), euclid2(), filiform4(), complex_borel()):
            doc = algebra_to_json(L)
            back = algebra_from_json(doc)
            assert back == L

    def test_unlisted_brackets_vanish(self):
        doc = {"dim": 2, "field": "Q", "basis": ["a", "b"], "brackets": []}
        L = algebra_from_json(doc)
        assert L.bracket(basis_vector(L, 0), basis_vector(L, 1)) == (Q(0), Q(0))

    def test_gaussian_coefficients(self):
        doc = {
            "dim": 2,
            "field": "Qi",
            "basis": ["a", "b"],
            "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1/2+3/4i"}}],
        }
        L = algebra_from_json(doc)
        assert L.bracket(basis_vector(L, 0), basis_vector(L, 1)) == (Q(0), gaussian(Q(1, 2), Q(3, 4)))


# reference membership test: v lies in s iff appending it leaves the rank unchanged
def _rank_contains(s, v):
    return len(ref_rref(list(s.rows) + [v])[0]) == s.dim


_small = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
_scalars = st.one_of(_small, st.builds(gaussian, _small, _small))


@st.composite
def subspace_and_vector(draw, scalars):
    """A subspace from 0..4 random vectors, and a vector that is half the time
    a combination of those vectors (so membership is exercised both ways)."""
    n = draw(st.integers(1, 5))
    vecs = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), max_size=4))
    vecs = [tuple(v) for v in vecs]
    if vecs and draw(st.booleans()):
        coeffs = draw(st.lists(scalars, min_size=len(vecs), max_size=len(vecs)))
        v = tuple(sum((c * w[k] for c, w in zip(coeffs, vecs)), Q(0)) for k in range(n))
    else:
        v = tuple(draw(st.lists(scalars, min_size=n, max_size=n)))
    return Subspace.from_vectors(n, vecs), v


class TestSubspaceReduction:
    @settings(max_examples=80)
    @given(subspace_and_vector(_small))
    def test_contains_matches_rank_reference_rational(self, case):
        s, v = case
        assert s.contains(v) == _rank_contains(s, v)

    @settings(max_examples=80)
    @given(subspace_and_vector(_scalars))
    def test_contains_matches_rank_reference_gaussian(self, case):
        s, v = case
        assert s.contains(v) == _rank_contains(s, v)

    @settings(max_examples=80)
    @given(subspace_and_vector(_scalars))
    def test_reduce_is_v_minus_its_component_in_s(self, case):
        """`reduce` takes an integer vector w and returns s (w minus its
        component in the span), s the denominator of the echelon rows."""
        s, v = case
        _, (w,) = zi_rows([v])
        r = s.reduce(w)
        assert vec_is_zero(r) == _rank_contains(s, v)
        assert all(r[p] == 0 for p in s.pivots)
        assert _rank_contains(s, tuple(_exact(s.denominator * a - b) for a, b in zip(w, r)))
        w = tuple(_exact(a) for a in w)
        assert tuple(map(_exact, r)) == tuple(s.denominator * x for x in ref_reduce(s, w))


_ints = st.integers(-3, 3)


@st.composite
def spans_and_vectors(draw):
    """Two vector lists over Q or Q(i), with zero vectors, repeats and empty
    lists mixed in, the second half the time a recombination of the first
    (so the spans often agree), and vectors to test for membership."""
    n = draw(st.integers(1, 5))
    scalars = draw(st.sampled_from((_small, _scalars)))
    vector = st.lists(scalars, min_size=n, max_size=n).map(tuple)
    first = draw(st.lists(st.one_of(vector, st.just((Q(0),) * n)), max_size=4))
    if first and draw(st.booleans()):
        first.append(draw(st.sampled_from(first)))
    if first and draw(st.booleans()):
        coeffs = st.lists(scalars, min_size=len(first), max_size=len(first))
        second = [tuple(sum((c * w[k] for c, w in zip(draw(coeffs), first)), Q(0))
                        for k in range(n)) for _ in range(len(first))]
    else:
        second = draw(st.lists(vector, max_size=4))
    members = [tuple(sum((c * w[k] for c, w in zip(draw(
        st.lists(scalars, min_size=len(first), max_size=len(first))), first)), Q(0))
        for k in range(n))] + draw(st.lists(vector, min_size=1, max_size=2))
    integral = draw(st.lists(st.lists(st.one_of(_ints, st.builds(zi, _ints, _ints)),
                                      min_size=n, max_size=n).map(tuple), max_size=2))
    return n, first, second, members, integral


def _exact(x):
    """An int or GaussInt as a `Fraction` or `GaussianRational`."""
    return gaussian(x.re, x.im) if type(x) is GaussInt else Q(x)


class TestSubspaceAgainstReference:
    """`Subspace` on integer echelon rows against `RefSubspace`, the
    `Fraction` subspace it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(spans_and_vectors())
    def test_rows_pivots_equality_and_membership(self, case):
        n, first, second, members, integral = case
        s, t = Subspace.from_vectors(n, first), Subspace.from_vectors(n, second)
        rs, rt = RefSubspace.from_vectors(n, first), RefSubspace.from_vectors(n, second)
        for lib, ref in ((s, rs), (t, rt)):
            assert lib.rows == ref.rows and lib.pivots == ref.pivots and lib.dim == ref.dim
            assert all(type(x) in (Q, GaussianRational) for row in lib.rows for x in row)
        assert (s == t) == (rs == rt)
        if s == t:
            assert hash(s) == hash(t)
        assert s == Subspace.from_vectors(n, s.rows) == Subspace.from_vectors(n, s.ints)
        for v in members + [tuple(_exact(x) for x in w) for w in integral]:
            assert s.contains(v) == rs.contains(v)
        for w in integral:
            assert s.contains(w) == rs.contains(tuple(_exact(x) for x in w))


# ---------------------------------------------------------------------------
# [s, s] from the pairs i < j against the span of all products


def _bracket_inputs():
    """(algebra, subspace): every derived term of the catalog algebras and of
    the algebras of the digest's sixth ladder (among them the unimodular
    conjugates of realified_borel, (e2 + axb)^2 and (ax+b)^4), and seeded
    random subspaces of each algebra, Gaussian over Q(i)."""
    algebras = [make() for make in LIE_CATALOG.values()] + list(cli_digest.weight_docs().values())
    rng = random.Random(32)
    cases = []
    for L in algebras:
        cases += [(L, s) for s in derived_series(L)]
        for size in range(1, L.dim + 1):
            vecs = [tuple(gaussian(Q(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1))
                          if L.field == "Qi" else Q(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(L.dim)) for _ in range(size)]
            cases.append((L, Subspace.from_vectors(L.dim, vecs)))
    return cases


BRACKET_INPUTS = _bracket_inputs()


def _all_pairs_span(L, s):
    return Subspace.from_vectors(L.dim, [ref_lie_bracket(L, u, v) for u in s.rows for v in s.rows])


def _bracket_mismatches(bracket):
    """The inputs on which bracket(L, s) is not the span of all [u, v]."""
    return [(L, s) for L, s in BRACKET_INPUTS if bracket(L, s) != _all_pairs_span(L, s)]


class TestPairHalving:
    def test_derived_bracket_equals_the_all_pairs_span(self):
        assert not _bracket_mismatches(lambda L, s: subspace_bracket(L, s, s))
        # the inputs are not all abelian: many terms have a nonzero bracket
        assert sum(bool(_all_pairs_span(L, s).dim) for L, s in BRACKET_INPUTS) >= 50

    def test_a_pair_range_that_skips_one_pair_is_caught(self):
        """The pairs a.ints[:j - 1] miss [u_{j-1}, u_j]: the property above
        must see it."""
        def skipping(L, s):
            return Subspace.from_vectors(L.dim, [
                w for j, v in enumerate(s.ints)
                for w in matmul_int(s.ints[:j - 1], L.integer_brackets(v))])
        assert _bracket_mismatches(skipping)

    def test_subalgebra_check_decides_as_all_pairs(self):
        for L, s in BRACKET_INPUTS:
            closed = s.contains_subspace(_all_pairs_span(L, s))
            try:
                checked_subalgebra(L, s.rows, "subspace")
            except AssertionError:
                assert not closed
            else:
                assert closed
