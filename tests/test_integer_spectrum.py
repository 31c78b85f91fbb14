"""The integer spectrum kernel agrees with the `Fraction` references.

`charpoly_int` runs on integer and Gaussian-integer matrices; a rational or
Gaussian-rational matrix A = N/s is compared through its numerator N with
`ref_charpoly_exact(A)`.  `least_gaussian_root` solves degree 1 and 2 in
closed form and bisects real parts above; on monic products over Z[i] it must
return the least root of `ref_gaussian_rational_roots` whenever that search
completes within its budget, and it completes the searches that used to
exhaust it.  `GaussInt` arithmetic and `rref_int` on Gaussian-integer
rows are checked against `GaussianRational` and `ref_rref`.  The layer search
on integer matrices, `weights._weights_exact`, finds the weights of
`ref_weights_joint_kernel`, the flag search on `Fraction` matrices, and
eliminates one [L, L]-kernel per layer, where the flag search eliminates
one per weight.
"""
import sys
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
from dense_reference import (
    COMPLEX_BOREL,
    DENSE_CATALOG,
    DenseMatrix,
    VALID_GAUSSIAN_DRAWS,
    VALID_RATIONAL_DRAWS,
    basis_vector,
    random_tensor,
    ref_charpoly_exact,
    ref_conjugate,
    ref_direct_sum,
    ref_gaussian_rational_roots,
    ref_rref,
    ref_weights_int_walk,
    ref_weights_joint_kernel,
    scalar_key,
    upper,
)
from liegrpd import weights
from liegrpd.catalog import (
    LIE_CATALOG,
    axb_tautological_module,
    complex_heisenberg,
    irrational_spectrum_algebra,
)
from liegrpd.exact import (
    GaussInt,
    charpoly_int,
    gaussian,
    kernel_int,
    least_gaussian_root,
    poly_eval,
    rref_int,
    zi,
    zi_parts,
    zi_rows,
)
from liegrpd.lie import (
    Subspace,
    ad_matrix,
    adjoint_module,
    coadjoint_module,
    derived_series,
    dual_module,
    from_brackets,
    subspace_bracket,
)
from liegrpd.weights import InexactSpectrum

I = gaussian(0, 1)

integers = st.integers(-6, 6)
rationals = st.builds(Q, st.integers(-12, 12), st.integers(1, 12))
gaussians = st.builds(gaussian, rationals, rationals)
ENTRIES = {"int": integers.map(Q), "rational": rationals, "gaussian": gaussians}


@st.composite
def square_matrices(draw):
    """1..8 square, of int, rational or Gaussian entries; some strictly upper
    triangular (nilpotent), some zero."""
    n = draw(st.integers(1, 8))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    shape = draw(st.sampled_from(("dense", "dense", "nilpotent", "zero")))
    if shape == "zero":
        return [[Q(0)] * n for _ in range(n)]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if shape == "nilpotent":
        rows = [[x if j > i else Q(0) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return rows


def _as_exact(x):
    """An int or GaussInt as a Fraction or GaussianRational."""
    return gaussian(x.re, x.im) if type(x) is GaussInt else Q(x)


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_integer_charpoly_equals_reference(rows):
    # A = N / s has char. polynomial sum_k c_k(N) s^(k-n) t^k
    s, ints = zi_rows(rows)
    n = len(rows)
    got = [_as_exact(c) / s ** (n - k) for k, c in enumerate(charpoly_int(ints))]
    assert got == ref_charpoly_exact(DenseMatrix(rows))


def test_integer_charpoly_of_nilpotent_and_zero_matrices():
    assert charpoly_int([[0, 1, 5], [0, 0, 2], [0, 0, 0]]) == [0, 0, 0, 1]
    assert charpoly_int([[0] * 4 for _ in range(4)]) == [0, 0, 0, 0, 1]
    assert charpoly_int([[zi(0, 1), 1], [0, zi(0, -1)]]) == [1, 0, 1]


def _poly(roots, tail):
    """The monic polynomial prod (t - r) times `tail`, lowest degree first."""
    poly = list(tail)
    for r in roots:
        poly = [0] + poly
        for k in range(len(poly) - 1):
            poly[k] -= r * poly[k + 1]
    return poly


ROOTS = st.one_of(st.integers(-3, 3), st.builds(zi, st.integers(-3, 3), st.integers(-3, 3)),
                  st.just(0))
TAILS = {"1": [1], "t^2-2": [-2, 0, 1], "t^2+t+1": [1, 1, 1]}


@st.composite
def root_products(draw):
    """Monic products of linear factors over Z[i] (integer, Gaussian, zero,
    doubled roots), possibly times t^2 - 2 or t^2 + t + 1, of degree 1..6."""
    tail = TAILS[draw(st.sampled_from(sorted(TAILS)))]
    k = draw(st.integers(1 if len(tail) == 1 else 0, 7 - len(tail)))
    roots = draw(st.lists(ROOTS, min_size=k, max_size=k))
    if roots and draw(st.booleans()):
        roots.append(roots[0])  # a doubled root
        roots = roots[: 7 - len(tail)]
    return _poly(roots, tail)


def _oracle_least(poly):
    """The least root that `ref_gaussian_rational_roots` finds, and whether
    its search completed."""
    roots, complete = ref_gaussian_rational_roots([_as_exact(c) for c in poly])
    return (roots[0][0] if roots else None), complete


@settings(max_examples=100, deadline=None)
@given(root_products())
def test_root_search_equals_reference(poly):
    assert 1 <= len(poly) - 1 <= 6
    root = least_gaussian_root(poly)
    least, complete = _oracle_least(poly)
    if complete:
        assert _as_exact(root) == least
    else:
        assert root is None or poly_eval(poly, root) == 0


@pytest.mark.parametrize("tail", sorted(TAILS))
def test_root_search_on_an_irreducible_factor(tail):
    poly = _poly([2, zi(0, 1), 0], TAILS[tail])
    root = least_gaussian_root(poly)
    if tail == "1":
        assert root == 0
    else:
        assert root is None or poly_eval(poly, root) == 0


def test_root_search_takes_gaussian_integer_coefficients():
    # (t - i)(t - 2)(t + 1 + i) over Z[i]
    assert least_gaussian_root(_poly([zi(0, 1), 2, zi(-1, -1)], [1])) == zi(-1, -1)


BIG = 10**7  # constant-term norms above 10^12 overspent the old divisor scan


@pytest.mark.parametrize("roots", [
    [BIG, 1],
    [zi(BIG, 1), zi(BIG, -1)],
    [BIG, BIG],
    [zi(BIG, 3), -BIG],
    [BIG, 1, 2],
    [zi(BIG, 1), zi(BIG, -1), BIG, -BIG],
])
def test_searches_that_exhausted_the_budget_complete(roots):
    poly = _poly(roots, [1])
    assert ref_gaussian_rational_roots([_as_exact(c) for c in poly]) == ([], False)
    assert least_gaussian_root(poly) == min(roots, key=zi_parts)


def test_closed_form_without_a_square_root_finds_nothing():
    # t^2 - 2 * 10^14 and t^2 + t + 10^13: no square discriminant in Z[i]
    for poly in ([-2 * BIG * BIG, 0, 1], [BIG * 10**6, 1, 1]):
        assert least_gaussian_root(poly) is None


@settings(max_examples=200, deadline=None)
@given(st.tuples(integers, integers), st.tuples(integers, integers))
def test_gaussian_integer_arithmetic_equals_gaussian_rational(u, w):
    a, b = zi(*u), zi(*w)
    x, y = gaussian(*u), gaussian(*w)
    assert _as_exact(a + b) == x + y
    assert _as_exact(a - b) == x - y
    assert _as_exact(a * b) == x * y
    assert _as_exact(-a) == -x
    assert _as_exact((a * b) // b if b else a) == x
    assert (a == b) == (x == y)
    assert bool(a) == (x != 0)


@st.composite
def gaussian_rows(draw):
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.builds(zi, st.integers(-3, 3), st.integers(-3, 3))
    return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))


@settings(max_examples=150, deadline=None)
@given(gaussian_rows())
def test_gaussian_integer_elimination_equals_reference_rref(rows):
    red, d, pivots = rref_int(rows)
    ref, ref_pivots = ref_rref([[_as_exact(x) for x in row] for row in rows])
    assert pivots == ref_pivots
    assert [[_as_exact(x) / _as_exact(d) for x in row] for row in red] == [list(r) for r in ref]


# ---------------------------------------------------------------------------
# the flag search on integer matrices against the Fraction one


def _key(weight):
    return tuple(scalar_key(x) for x in weight)


LIE_CATALOG_CASES = [(n, make()) for n, make in sorted(LIE_CATALOG.items())] + [
    ("complex_heisenberg", complex_heisenberg()), ("irrational", irrational_spectrum_algebra())]


def _flag_cases():
    """(name, module): the solvable catalog algebras, seeded conjugates over
    Q and Q(i), sums and random draws, each with its adjoint and coadjoint
    module, and the tautological module of the affine line and its dual."""
    cases = [("axb_tautological", axb_tautological_module()),
             ("axb_tautological*", dual_module(axb_tautological_module()))]
    algebras = dict(LIE_CATALOG_CASES)
    for seed in range(2):
        for name in ("axb_semidirect_plane", "e2", "realified_borel", "filiform4"):
            t, _, _ = DENSE_CATALOG[name]
            algebras[f"{name}~{seed}"] = from_brackets(len(t), upper(ref_conjugate(t, seed)))
        algebras[f"complex_borel~{seed}"] = from_brackets(
            2, upper(ref_conjugate(COMPLEX_BOREL, seed, (1, -1, I, -I))), field="Qi")
    axb, e2 = DENSE_CATALOG["axb"][0], DENSE_CATALOG["e2"][0]
    algebras["axb+e2"] = from_brackets(5, upper(ref_direct_sum(axb, e2)))
    algebras["axb^3"] = from_brackets(6, upper(ref_direct_sum(axb, axb, axb)))
    for seed in VALID_RATIONAL_DRAWS + VALID_GAUSSIAN_DRAWS:
        t, field = random_tensor(seed)
        algebras[f"draw{seed}"] = from_brackets(len(t), upper(t), field=field)
    for name, L in sorted(algebras.items()):
        if derived_series(L)[-1].dim == 0:
            for module in (adjoint_module, coadjoint_module):
                cases.append((f"{module.__name__}:{name}", module(L)))
    return cases


FLAG_CASES = _flag_cases()


def _flag(search, M):
    try:
        return sorted(search(M, derived_series(M.algebra)[1]), key=_key)
    except InexactSpectrum:
        return InexactSpectrum


@pytest.mark.parametrize("name, M", FLAG_CASES, ids=[n for n, _ in FLAG_CASES])
def test_integer_flag_search_equals_fraction_search(name, M):
    assert _flag(weights._weights_exact, M) == _flag(ref_weights_joint_kernel, M)


def test_flag_cases_cover_both_fields_and_the_float_path():
    assert {M.algebra.field for _, M in FLAG_CASES} == {"Q", "Qi"}
    M = dict(FLAG_CASES)["adjoint_module:irrational"]
    assert _flag(weights._weights_exact, M) is InexactSpectrum
    # e2's eigenvalues +-i come from a rational matrix and continue over Z[i]
    assert {x for w in _flag(weights._weights_exact, dict(FLAG_CASES)["adjoint_module:e2"])
            for x in w} == {Q(0), I, -I}


def _layer_kernels(M):
    """The [L, L]-kernels that `_weights_exact` eliminates, one per layer: the
    `kernel_int` calls of its layer loop, not those of `_split`."""
    callers = []

    def counted(rows, n):
        callers.append(sys._getframe(1).f_code.co_name)
        return kernel_int(rows, n)

    with mock.patch.object(weights, "kernel_int", counted):
        _flag(weights._weights_exact, M)
    return callers.count("_weights_exact")


def _walk_kernels(M):
    """The [L, L]-kernels of the one-line walk, one per weight of the flag."""
    with mock.patch.object(dense_reference, "ref_eigenline_int",
                           wraps=dense_reference.ref_eigenline_int) as eigenline:
        ref_weights_int_walk(M, derived_series(M.algebra)[1])
    return eigenline.call_count


def _adjoint(t):
    return adjoint_module(from_brackets(len(t), upper(t)))


@pytest.mark.parametrize("k", range(1, 7))
def test_the_layers_of_a_sum_of_affine_lines_are_two(k):
    # [L, L] kills the Y_i, and acts as 0 on the quotient spanned by the X_i
    axb = DENSE_CATALOG["axb"][0]
    for t in (ref_direct_sum(*[axb] * k), ref_conjugate(ref_direct_sum(*[axb] * k), k)):
        M = _adjoint(t)
        assert (_layer_kernels(M), _walk_kernels(M)) == (2, 2 * k)


@pytest.mark.parametrize("name, layers", [("heisenberg", 1), ("filiform4", 2)])
def test_the_layer_count_does_not_depend_on_the_basis(name, layers):
    t = DENSE_CATALOG[name][0]
    for seed in (None, 0, 1):
        M = _adjoint(t if seed is None else ref_conjugate(t, seed))
        assert _layer_kernels(M) == layers


@pytest.mark.parametrize("parts, k", [("e2+axb", 2), ("e2+axb", 3), ("axb", 4), ("axb", 6)])
def test_layer_peel_equals_fraction_search_on_larger_sums(parts, k):
    t = ref_direct_sum(*[DENSE_CATALOG[p][0] for p in parts.split("+")] * k)
    for seed in range(2):
        M = _adjoint(ref_conjugate(t, seed))
        assert _flag(weights._weights_exact, M) == _flag(ref_weights_joint_kernel, M)


def test_a_layer_with_an_irreducible_quadratic_factor_takes_the_float_path():
    # R X + R^3 with ad(X) = A on R^3, A of characteristic polynomial
    # t (t^2 - 2): the first layer is R^3, where ad(X) has the eigenvalues
    # 0 and +-sqrt(2)
    a = [[0, 0, 0], [1, 0, 2], [0, 1, 0]]
    L = from_brackets(4, {(0, j + 1): {i + 1: a[i][j] for i in range(3) if a[i][j]}
                          for j in range(3)})
    assert charpoly_int(a) == [0, -2, 0, 1]
    M = adjoint_module(L)
    assert _layer_kernels(M) == 1  # the first layer's split raises
    assert _flag(weights._weights_exact, M) is InexactSpectrum
    assert _flag(ref_weights_joint_kernel, M) is InexactSpectrum
    assert not any(w.exact for w in weights.module_weights(L, M))


def test_derived_series_equals_the_series_of_brackets():
    for _, L in LIE_CATALOG_CASES + [(n, M.algebra) for n, M in FLAG_CASES]:
        full = Subspace.full(L.dim)
        chain = [full]
        while chain[-1].dim:
            nxt = subspace_bracket(L, chain[-1], chain[-1])
            if nxt == chain[-1]:
                break
            chain.append(nxt)
        assert derived_series(L) == tuple(chain)


def test_adjoint_module_equals_ad_matrices():
    for _, L in LIE_CATALOG_CASES + [(n, M.algebra) for n, M in FLAG_CASES]:
        assert adjoint_module(L).actions == tuple(
            ad_matrix(L, basis_vector(L, i)) for i in range(L.dim))


@settings(max_examples=100, deadline=None)
@given(gaussian_rows(), st.integers(1, 6))
def test_gaussian_rational_rref_equals_reference(rows, den):
    rows = [[_as_exact(x) / den for x in row] for row in rows]
    s = Subspace.from_vectors(len(rows[0]), rows)
    assert (list(s.rows), list(s.pivots)) == ref_rref(rows)
