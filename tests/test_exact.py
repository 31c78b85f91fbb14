import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_reference import (
    DenseMatrix,
    _poly_rem,
    _poly_trim,
    det_exact,
    eigenvalues_numeric,
    matrix_inverse,
    rank_kernel,
    ref_lagrange_interpolate,
    ref_rref,
    ref_sturm_root_count,
    solve_exact,
)
from liegrpd.exact import (
    GaussInt,
    GaussianRational,
    Matrix,
    NumericError,
    Poly,
    _count_right,
    _remainder_chain,
    charpoly_int,
    format_scalar,
    gaussian,
    imaginary_integer_roots,
    least_gaussian_root,
    newton_interpolate,
    parse_scalar,
    pfaffian_int,
    poly_eval,
    rref_int,
    sturm_root_count,
    zi,
    zi_parts,
)
from liegrpd.lie import Subspace

rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


def rational_matrix(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix)


class TestScalars:
    def test_gaussian_collapses_to_fraction(self):
        assert gaussian(1, 0) == Q(1)
        assert isinstance(gaussian(1, 0), Q)
        z = gaussian(Q(1, 2), Q(-3, 4))
        assert isinstance(z, GaussianRational)

    def test_arithmetic(self):
        i = gaussian(0, 1)
        assert i * i == Q(-1)
        assert (1 + i) * (1 - i) == Q(2)
        assert (2 + i) / (1 - i) == gaussian(Q(1, 2), Q(3, 2))
        assert 1 / i == -i

    def test_parse_format_round_trip(self):
        for text in ["7", "-3/4", "1/2+3/4i", "i", "-i", "2i", "1/2-3/4i", "0"]:
            z = parse_scalar(text)
            assert parse_scalar(format_scalar(z)) == z

    def test_parse_with_space(self):
        assert parse_scalar("1/2+3/4 i") == gaussian(Q(1, 2), Q(3, 4))


class TestElimination:
    def test_rank_kernel_dependent_rows(self):
        # [[1,2],[2,4]]: rank 1, kernel spanned by (-2, 1)
        rank, kernel = rank_kernel(Matrix([[1, 2], [2, 4]]))
        assert rank == 1
        assert kernel == [(Q(-2), Q(1))]

    def test_rank_full(self):
        rank, kernel = rank_kernel(Matrix([[1, 0], [1, 1]]))
        assert rank == 2 and kernel == []

    def test_mode_error_on_float(self):
        with pytest.raises(TypeError):
            rank_kernel(Matrix([[1.0, 2.0], [2.0, 4.0]]))

    def test_mixed_entries_rejected(self):
        for rows in ([[1, 2.0]], [[Q(1, 2)], [0.5]], [[1j]]):
            with pytest.raises(TypeError, match="matrix entries must be exact"):
                Matrix(rows)
        with pytest.raises(ValueError, match="nonempty"):
            Matrix([])
        with pytest.raises(ValueError, match="ragged"):
            Matrix([[1, 2], [3]])

    @settings(max_examples=60)
    @given(rational_matrix(3))
    def test_rank_nullity_and_kernel_annihilated(self, m):
        rank, kernel = rank_kernel(m)
        assert rank + len(kernel) == 3
        for v in kernel:
            assert DenseMatrix(m.data).apply(v) == (Q(0),) * 3
        # kernel vectors are independent: each has a 1 where others are 0
        if kernel:
            stacked = Matrix(kernel)
            r2, _ = rank_kernel(stacked)
            assert r2 == len(kernel)

    def test_rref_idempotent(self):
        rows = [[Q(2), Q(4)], [Q(1), Q(3)]]
        s = Subspace.from_vectors(2, rows)
        s2 = Subspace.from_vectors(2, s.rows)
        assert s.rows == s2.rows and s.pivots == s2.pivots
        assert (list(s.rows), list(s.pivots)) == ref_rref(rows) == ref_rref(s.rows)

    def test_det_and_inverse(self):
        m = DenseMatrix([[1, 2], [3, 4]])
        assert det_exact(m) == Q(-2)
        assert matrix_inverse(m) @ m == DenseMatrix.identity(2)

    def test_solve(self):
        m = Matrix([[1, 1], [0, 1]])
        assert solve_exact(m, (Q(3), Q(2))) == (Q(1), Q(2))
        assert solve_exact(Matrix([[1, 1], [1, 1]]), (Q(0), Q(1))) is None

    def test_gaussian_entries(self):
        i = gaussian(0, 1)
        rank, kernel = rank_kernel(Matrix([[1, i], [i, -1]]))
        assert rank == 1
        assert len(kernel) == 1


# about two thirds zeros, both signs, denominators up to 12
sparse_entries = st.tuples(st.integers(0, 2), st.integers(-9, 9), st.integers(1, 12)).map(
    lambda t: Q(t[1], t[2]) if t[0] == 0 else Q(0)
)


@st.composite
def elimination_rows(draw, entries=sparse_entries, max_rows=8, max_cols=9):
    """Rows with zero rows and rational combinations of earlier rows mixed in."""
    nrows, ncols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(1, nrows):
        kind = draw(st.integers(0, 3))
        if kind == 1:
            rows[i] = [Q(0)] * ncols
        elif kind == 2:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(rationals), draw(rationals)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


# regular-representation-like incidence matrices
zero_one_rows = elimination_rows(st.sampled_from((Q(0), Q(1))), max_rows=12, max_cols=16)


@st.composite
def gaussian_rows(draw):
    """Rational rows with one Gaussian entry: the generic elimination."""
    rows = draw(elimination_rows())
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
    rows[i][j] = gaussian(draw(rationals), draw(rationals.filter(bool)))
    return rows


def ref_rank_kernel(rows):
    red, pivots = ref_rref(rows)
    ncols = len(rows[0])
    kernel = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [Q(0)] * ncols
        v[j] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][j]
        kernel.append(tuple(v))
    return len(pivots), kernel


class TestEliminationAgainstReference:
    """The rows and pivots of `Subspace.from_vectors`, and `kernel_int`
    through `rank_kernel`, against the generic `Fraction` elimination."""

    def check(self, rows):
        s = Subspace.from_vectors(len(rows[0]), rows)
        assert (list(s.rows), list(s.pivots)) == ref_rref(rows)
        assert all(type(x) in (Q, GaussianRational) for row in s.rows for x in row)
        assert rank_kernel(Matrix(rows)) == ref_rank_kernel(rows)

    @settings(max_examples=300, deadline=None)
    @given(elimination_rows())
    def test_sparse_rational_rows(self, rows):
        self.check(rows)

    @settings(max_examples=100, deadline=None)
    @given(zero_one_rows)
    def test_zero_one_rows(self, rows):
        self.check(rows)

    @settings(max_examples=60, deadline=None)
    @given(gaussian_rows())
    def test_rows_with_a_gaussian_entry(self, rows):
        self.check(rows)

    def test_negative_pivots_and_a_zero_factor_row(self):
        for rows in ([[Q(-2), Q(1)]],
                     [[Q(1), Q(0)], [Q(0), Q(-1)]],
                     [[Q(2), Q(1), Q(0)], [Q(0), Q(3), Q(1)], [Q(1), Q(0), Q(-5, 7)]],
                     [[Q(0), Q(-3, 4)], [Q(-1, 2), Q(5)], [Q(0), Q(0)]]):
            self.check(rows)


    def test_integer_routine_returns_the_last_pivot_as_denominator(self):
        # d = det for a square nonsingular input, every pivot entry equal to d
        assert rref_int([[2, 1], [4, 3]]) == ([[2, 0], [0, 2]], 2, [0, 1])
        assert rref_int([[0, -3, 6], [0, 1, 1]]) == ([[0, -9, 0], [0, 0, -9]], -9, [1, 2])
        assert rref_int([[0, 0], [0, 0]]) == ([], 1, [])


class TestCharpoly:
    def test_rotation_generator(self):
        # [[0,-1],[1,0]]: t^2 + 1, roots +-i
        poly = charpoly_int([[0, -1], [1, 0]])
        assert poly == [1, 0, 1]
        assert least_gaussian_root(poly) == zi(0, -1)

    def test_irrational_spectrum_has_no_root(self):
        # [[0,1],[2,0]]: t^2 - 2, no Gaussian-integer roots
        poly = charpoly_int([[0, 1], [2, 0]])
        assert poly == [-2, 0, 1]
        assert least_gaussian_root(poly) is None

    def test_diagonal(self):
        poly = charpoly_int([[1, 0], [0, -1]])
        assert poly == [-1, 0, 1]
        assert least_gaussian_root(poly) == -1

    def test_repeated_root(self):
        assert least_gaussian_root(charpoly_int([[2, 1], [0, 2]])) == 2

    @settings(max_examples=40)
    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=5))
    def test_companion_matrix_recovers_polynomial(self, low):
        # companion of monic t^n + a_{n-1} t^{n-1} + ... + a_0
        n = len(low)
        comp = [[0] * n for _ in range(n)]
        for i in range(1, n):
            comp[i][i - 1] = 1
        for i in range(n):
            comp[i][n - 1] = -low[i]
        assert charpoly_int(comp) == low + [1]

    @settings(max_examples=30)
    @given(st.lists(st.builds(zi, st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4))
    def test_constructed_roots_are_found(self, roots):
        assert least_gaussian_root(_split(roots)) == min(roots, key=zi_parts)

    def test_gaussian_roots_with_gaussian_coeffs(self):
        # (t - i)(t - (1+i)) = t^2 - (1+2i) t + (i - 1)
        poly = [zi(-1, 1), zi(-1, -2), 1]
        assert poly == _split([zi(0, 1), zi(1, 1)])
        assert least_gaussian_root(poly) == zi(0, 1)

    def test_zero_root_stripped(self):
        assert least_gaussian_root([0, 0, 1]) == 0
        assert least_gaussian_root([0, 0, 0, 3, 1]) == -3  # t^3 (t + 3)


def _split(roots, tail=(1,)):
    """prod (t - r) times `tail`, lowest degree first."""
    p = list(tail)
    for r in roots:
        p = _times(p, [-r, 1])
    return p


HUGE = (10**7, -10**7, zi(10**7, 1), zi(-3, -10**7), 10**399)
gaussian_integers = st.one_of(st.builds(zi, st.integers(-6, 6), st.integers(-6, 6)),
                              st.integers(-6, 6), st.just(0))


@st.composite
def split_roots(draw):
    """1..7 Gaussian-integer roots: small ones, zeros, at most one of +-10^7,
    10^7 + i, -3 - 10^7 i and 10^399, and maybe the first one doubled."""
    roots = draw(st.lists(gaussian_integers, min_size=0, max_size=6))
    if draw(st.booleans()):
        roots.append(draw(st.sampled_from(HUGE)))
    if roots and len(roots) < 7 and draw(st.booleans()):
        roots.append(roots[0])
    return roots or [draw(gaussian_integers)]


IRREDUCIBLE_TAILS = {"t^2-2": [-2, 0, 1], "t^2+t+1": [1, 1, 1], "t^2-(1+i)": [zi(-1, -1), 0, 1],
                     "t^3-3": [-3, 0, 0, 1], "t^4+2": [2, 0, 0, 0, 1]}


class TestLeastGaussianRoot:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(gaussian_integers, min_size=1, max_size=7), st.integers(-8, 8))
    def test_the_count_of_roots_right_of_an_odd_line(self, roots, m):
        # prod (u - 2r) has no root on the line Re u = 2m + 1
        q = _split([2 * r for r in roots])
        assert _count_right(q, 2 * m + 1) == sum(zi_parts(r)[0] > m for r in roots)

    @settings(max_examples=300, deadline=None)
    @given(split_roots())
    def test_a_split_product_gives_its_least_root(self, roots):
        assert least_gaussian_root(_split(roots)) == min(roots, key=zi_parts)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(IRREDUCIBLE_TAILS)), st.lists(gaussian_integers, max_size=4),
           st.sampled_from((1, 10**7)))
    def test_an_irreducible_tail_gives_none_or_a_root(self, tail, roots, scale):
        poly = _split([r * scale for r in roots], IRREDUCIBLE_TAILS[tail])
        root = least_gaussian_root(poly)
        assert root is None or poly_eval(poly, root) == 0

    def test_the_weight_polynomials_of_the_diagonal_algebra(self):
        # (t - 10^7)(t - 1)(t - 2): the divisor scan gave up on its constant term
        assert least_gaussian_root(_split([10**7, 1, 2])) == 1
        assert least_gaussian_root(_split([10**7, -1, zi(-1, -5), zi(-1, 5)])) == zi(-1, -5)
        # (t - 10^7)(t^2 - 2): the line Re t = -1 holds no root
        assert least_gaussian_root(_split([10**7], [-2, 0, 1])) is None

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), max_size=6))
    def test_the_remainder_chain_is_a_positive_multiple_of_the_rational_one(self, f0, f1):
        # either degree order, as in the gcd loop of imaginary_integer_roots
        f0 = _poly_trim(f0)
        assume(any(f0))
        chain = _remainder_chain(f0, f1)
        ref = [f0] + ([_poly_trim(f1)] if any(f1) else [])
        while len(ref) > 1:
            rem = _poly_rem([Q(x) for x in ref[-2]], [Q(x) for x in ref[-1]])
            if not any(rem):
                break
            ref.append([-x for x in rem])
        assert len(chain) == len(ref)
        for got, want in zip(chain, ref):
            assert len(got) == len(want)
            ratio = Q(got[-1]) / want[-1]
            assert ratio > 0 and all(Q(x) == ratio * y for x, y in zip(got, want))


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@st.composite
def node_vectors(draw):
    """Integer values at the nodes 0..h, h = 1..7, with nonzero endpoints.

    Half are arbitrary.  The rest are values of integer polynomials of degree
    at most h: products of factors u t - w, whose roots lie on nodes, between
    nodes or outside [0, h] and may be doubled, or sparse shifts
    A (t - c)^n + B (t - c) + D, whose Sturm chain drops n - 2 degrees in one
    step, so for even n the pseudo-remainder factor lc^(n-1) can be negative.
    """
    h = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["free", "roots", "free", "sparse"]))
    if kind == "free":
        ends = st.integers(-50, 50).filter(bool)
        return [draw(ends)] + draw(st.lists(st.integers(-50, 50), min_size=h - 1,
                                            max_size=h - 1)) + [draw(ends)]
    if kind == "roots":
        p = [draw(st.sampled_from([-3, -1, 1, 2]))]
        for _ in range(draw(st.integers(1, h))):
            u = draw(st.integers(1, 3))
            w = draw(st.integers(-u, u * (h + 1)).filter(lambda w: w not in (0, u * h)))
            for _ in range(draw(st.integers(1, 2))):
                if len(p) <= h:
                    p = _times(p, [-w, u])
    else:
        h = max(h, 4)
        n, c = draw(st.integers(4, h)), draw(st.integers(0, h))
        a = draw(st.sampled_from([-2, -1, 1, 2]))
        b, d = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        p = [a]
        for _ in range(n):
            p = _times(p, [-c, 1])
        p[0] += d - b * c
        p[1] += b
    values = [poly_eval(p, k) for k in range(h + 1)]
    assume(values[0] and values[-1])
    return values


class TestPolynomials:
    @settings(max_examples=300, deadline=None)
    @given(node_vectors())
    def test_integer_pair_matches_the_fraction_reference(self, values):
        h = len(values) - 1
        poly = newton_interpolate(values)
        ref = ref_lagrange_interpolate(list(enumerate(values)))
        assert poly == [math.factorial(h) * c for c in ref] + [0] * (h + 1 - len(ref))
        assert sturm_root_count(poly, 0, h) == ref_sturm_root_count(ref, Q(0), Q(h))

    def test_sturm_counts(self):
        # 4t^2 - 4t + 1 = 4(t - 1/2)^2: one distinct root in (0,1)
        p = [1, -4, 4]
        assert sturm_root_count(p, 0, 1) == 1
        # t^2 - 2: no roots in (0,1), one in (1,2)
        p = [-2, 0, 1]
        assert sturm_root_count(p, 0, 1) == 0
        assert sturm_root_count(p, 1, 2) == 1
        # t^2 + 1: none anywhere real
        assert sturm_root_count([1, 0, 1], -10, 10) == 0

    def test_sturm_linear(self):
        # 3t - 1 = 3(t - 1/3)
        assert sturm_root_count([-1, 3], 0, 1) == 1

    def test_imaginary_integer_roots(self):
        big = 10**399
        assert imaginary_integer_roots([0, -big, 1]) == []  # t (t - 10^399)
        assert imaginary_integer_roots([0, 1, 0, 1]) == [-1, 1]  # t (t^2 + 1)
        assert imaginary_integer_roots([16, 0, 8, 0, 1]) == [-2, 2]  # (t^2 + 4)^2
        assert imaginary_integer_roots([10**40, 0, 1]) == [-10**20, 10**20]
        assert imaginary_integer_roots([GaussInt(0, -3), 1]) == [3]  # t - 3i
        assert imaginary_integer_roots([GaussInt(-2, -3), 1]) == []  # t - (2 + 3i)
        assert imaginary_integer_roots([2, 0, 1]) == []  # t^2 + 2: w = +-sqrt 2
        # (t - i)^2 (t - 2i), a double root
        assert imaginary_integer_roots([GaussInt(0, 2), -5, GaussInt(0, -4), 1]) == [1, 2]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-12, 12), max_size=3),
           st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=3),
           st.booleans())
    def test_imaginary_integer_roots_match_a_scan(self, ws, cofactor, gaussian_cofactor):
        # p = q prod (t - i w): every root of q has modulus below 1 + 3 sqrt 2,
        # so each integer w with p(iw) = 0 lies in [-12, 12]
        p = [zi(a, b if gaussian_cofactor else 0) for a, b in cofactor] + [1]
        for w in ws:
            p = _times(p, [zi(0, -w), 1])
        expect = [w for w in range(-12, 13) if w and poly_eval(p, zi(0, w)) == 0]
        assert imaginary_integer_roots(p) == expect

    @settings(max_examples=30)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    def test_newton_recovers_polynomial(self, coeffs):
        h = len(coeffs) - 1
        values = [poly_eval(coeffs, k) for k in range(h + 1)]
        assert newton_interpolate(values) == [math.factorial(h) * c for c in coeffs]


class TestNumeric:
    def test_eigenvalues_residual_contract(self):
        m = np.array([[0.0, -1.0], [1.0, 0.0]])
        vals = eigenvalues_numeric(m, tol=1e-9)
        assert np.allclose(sorted(v.imag for v in vals), [-1.0, 1.0], atol=1e-9)

    def test_eigenvalues_match_exact_roots(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        vals = eigenvalues_numeric(m)
        assert np.allclose(sorted(v.real for v in vals), [1.0, 3.0], atol=1e-9)


def pfaffian_by_matchings(a):
    """Reference Pfaffian: the signed sum over perfect matchings, expanded
    along the first row (pairing index 0 with the j-th remaining index
    carries the sign (-1)^(j-1))."""
    idx = list(range(len(a)))

    def expand(rest):
        if not rest:
            return 1
        first, total = rest[0], 0
        for pos in range(1, len(rest)):
            entry = a[first][rest[pos]]
            if entry:
                sign = 1 if pos % 2 else -1
                total += sign * entry * expand(rest[1:pos] + rest[pos + 1:])
        return total

    return expand(idx) if len(idx) % 2 == 0 else 0


def skew_from_upper(n, upper):
    a = [[0] * n for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j], a[j][i] = upper[pos], -upper[pos]
            pos += 1
    return a


# mostly zero entries: pivots vanish often, so the swaps are exercised
sparse_ints = st.one_of(st.just(0), st.just(0), st.integers(-5, 5))
sparse_rationals = st.one_of(st.just(Q(0)), st.just(Q(0)), rationals)


@st.composite
def skew_matrices(draw, entries):
    n = draw(st.integers(2, 8))
    upper = draw(st.lists(entries, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return skew_from_upper(n, upper)


class TestPfaffian:
    @settings(max_examples=150, deadline=None)
    @given(skew_matrices(sparse_ints))
    def test_integer_matrices_match_matchings_and_det(self, a):
        pf = pfaffian_int(a)
        assert pf == pfaffian_by_matchings(a)
        assert pf * pf == det_exact(Matrix(a))

    @settings(max_examples=100, deadline=None)
    @given(skew_matrices(sparse_rationals))
    def test_rational_matrices_after_clearing_denominators(self, a):
        # Pf(dA) = d^(n/2) Pf(A) for an even order n
        n = len(a)
        d = math.lcm(*(x.denominator for row in a for x in row))
        pf = Q(pfaffian_int([[int(x * d) for x in row] for row in a]), d ** (n // 2))
        if n % 2:
            assert pf == 0
        else:
            assert pf == pfaffian_by_matchings(a)
        assert pf * pf == det_exact(Matrix(a))

    def test_zero_pivot_swaps_and_flips_the_sign(self):
        # a01 = 0, so index 1 is swapped with index 2: Pf = -a02 a13 = -1
        a = skew_from_upper(4, [0, 1, 0, 0, 1, 0])
        assert pfaffian_int(a) == -1 == pfaffian_by_matchings(a)

    def test_zero_row_and_odd_order(self):
        assert pfaffian_int(skew_from_upper(4, [0, 0, 0, 3, 4, 5])) == 0
        assert pfaffian_int(skew_from_upper(3, [1, 2, 3])) == 0

    def test_only_the_upper_triangle_is_read(self):
        a = skew_from_upper(4, [0, 2, 3, 5, 7, 11])
        garbage = [[99 if j <= i else x for j, x in enumerate(row)] for i, row in enumerate(a)]
        assert pfaffian_int(garbage) == pfaffian_int(a) == pfaffian_by_matchings(a)


def var(i):
    return Poly({(i,): 1})


# polynomials over Z as dicts {exponent tuple: coefficient}, the oracle for Poly
_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-4, 4), max_size=4)


def _as_poly(d):
    return sum((c * math.prod(var(i) for i, e in enumerate(m) for _ in range(e))
                for m, c in d.items()), Poly())


def _dict_mul(f, g):
    out = {}
    for m, c in f.items():
        for n, d in g.items():
            k = tuple(a + b for a, b in zip(m, n))
            out[k] = out.get(k, 0) + c * d
    return out


class TestPoly:
    @settings(max_examples=60, deadline=None)
    @given(_polys, _polys, st.tuples(*[st.integers(-5, 5)] * 3))
    def test_ring_operations_evaluate_pointwise(self, f, g, point):
        p, q = _as_poly(f), _as_poly(g)
        at = lambda d: sum(c * math.prod(x**e for x, e in zip(point, m)) for m, c in d.items())
        assert (p + q)(point) == at(f) + at(g)
        assert (p - q)(point) == at(f) - at(g) == -(q - p)(point)
        assert (p * q)(point) == at(f) * at(g) == (3 * p * q - 2 * (q * p))(point)
        assert (p * q == _as_poly(_dict_mul(f, g))) and (p - p == 0) and not (p - p)
        if q:
            assert (p * q) // q == p
        if p and q.terms.keys() - {()}:
            with pytest.raises(ArithmeticError):
                (p * q + 1) // q

    def test_mixed_with_int_and_derivatives(self):
        x0, x1 = var(0), var(1)
        p = (x0 + 2 * x1) * (x0 - x1) + 3
        assert 1 + -x0 == -(x0 - 1) and 0 * x0 == 0 and Poly.lift(5) == 5
        assert p.diff(0) == 2 * x0 + x1 and p.diff(1) == x0 - 4 * x1
        assert (6 * x0 * x1) // 3 == 2 * x1 * x0
        with pytest.raises(ArithmeticError):
            (6 * x0 * x1) // 4
        with pytest.raises(ArithmeticError):
            (x0 * x0) // x1

    def test_pfaffian_int_runs_unchanged_on_polys(self):
        # Pf of the generic 4 x 4 skew matrix is a12 a34 - a13 a24 + a14 a23
        a = [[0] * 4 for _ in range(4)]
        for k, (i, j) in enumerate([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]):
            a[i][j], a[j][i] = var(k), -var(k)
        v = var
        assert pfaffian_int(a) == v(0) * v(5) - v(1) * v(4) + v(2) * v(3)
        a[0][1] = a[1][0] = 0  # a zero pivot swaps indices
        assert pfaffian_int(a) == -v(1) * v(4) + v(2) * v(3)
