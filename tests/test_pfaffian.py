"""The Pfaffian as a polynomial, and its certified rational linear factors.

`pfaffian_poly` runs `pfaffian_int` unchanged on `Poly` rows; at every
integer point its value must be the integer Pfaffian of the skew form there.
`certify_pfaffian` splits Pf = c * prod l_i^e_i * Q; its factors must
multiply back to Pf and agree with sympy's `factor_list`, which serves as the
oracle here only (the package never imports sympy).  The refusals cover an
indefinite quadratic cofactor, an irreducible cubic one and linear factors
that meet a line at the same point.
"""
import math
import random

import pytest
import sympy

from dense_reference import dense, ref_conjugate, upper
from liegrpd import coadjoint
from liegrpd.catalog import LIE_CATALOG
from liegrpd.coadjoint import (
    _semidefinite_rank,
    _split_on_line,
    certify_pfaffian,
    integer_bform,
    pfaffian_poly,
)
from liegrpd.exact import Poly, pfaffian_int
from liegrpd.lie import from_brackets


def var(i):
    return Poly({(i,): 1})


def axb_power(k):
    return from_brackets(2 * k, {(2 * i, 2 * i + 1): {2 * i + 1: 1} for i in range(k)})


def e2_plus_e2():
    """e(2) + e(2): dimension 6 and a trivial center, yet Pf vanishes identically."""
    return from_brackets(6, {(0, 1): {2: 1}, (0, 2): {1: -1}, (3, 4): {5: 1}, (3, 5): {4: -1}})


def aff2():
    """gl(2) + R^2 in the basis E11, E12, E21, E22, X1, X2: Frobenius, with
    an irreducible cubic Pf."""
    return from_brackets(6, {
        (0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {0: 1, 3: -1}, (1, 3): {1: 1},
        (2, 3): {2: -1}, (0, 4): {4: 1}, (1, 5): {4: 1}, (2, 4): {5: 1}, (3, 5): {5: 1}})


def borel_sp4():
    """The Borel of sp(4) in the basis H1, H2, E_a, E_b, E_a+b, E_2a+b, with
    a = e1 - e2 and b = 2 e2: solvable, and Pf = -2 x5 (2 x3 x5 - x4^2),
    whose quadratic cofactor is indefinite."""
    return from_brackets(6, {
        (0, 2): {2: 1}, (1, 2): {2: -1}, (1, 3): {3: 2}, (0, 4): {4: 1}, (1, 4): {4: 1},
        (0, 5): {5: 2}, (2, 3): {4: 1}, (2, 4): {5: 1}})


def conjugated(L, seed):
    """L in a seeded unimodular basis: the same algebra, a dense tensor."""
    t = dense(L.dim, {(j, k): dict(terms) for j, k, terms in L.brackets})
    return from_brackets(L.dim, upper(ref_conjugate(t, seed)))


BASE = {name: make for name, make in LIE_CATALOG.items() if make().field == "Q"}
BASE.update({f"axb^{k}": (lambda k=k: axb_power(k)) for k in (2, 3, 4)})
BASE.update({"e2+e2": e2_plus_e2, "aff2": aff2, "b(sp4)": borel_sp4})
CASES = dict(BASE)
CASES.update({f"{name}~{seed}": (lambda make=make, seed=seed: conjugated(make(), seed))
              for name, make in BASE.items() for seed in range(2)})
VANISHING = ("heisenberg", "e2", "filiform4", "e2+e2")
UNCERTIFIED = ("aff2", "b(sp4)")


def base(name):
    return name.split("~")[0]


def to_sympy(P, xs):
    return sum(c * math.prod(xs[i] for i in m) for m, c in P.terms.items())


def linear(form):
    return Poly({(j,): c for j, c in enumerate(form) if c})


@pytest.mark.parametrize("name", sorted(CASES))
def test_poly_pfaffian_is_the_integer_pfaffian_pointwise(name):
    L, rng = CASES[name](), random.Random(name)
    P = pfaffian_poly(L)
    assert (not P) == (base(name) in VANISHING)
    assert all(len(m) == L.dim // 2 for m in P.terms)  # homogeneous of degree dim/2
    for _ in range(20):
        point = [rng.randint(-9, 9) for _ in range(L.dim)]
        assert P(point) == pfaffian_int(integer_bform(L, point))


@pytest.mark.parametrize("name", sorted(n for n in CASES if base(n) not in VANISHING))
def test_certified_factors_multiply_back_and_agree_with_sympy(name):
    L = CASES[name]()
    P = pfaffian_poly(L)
    factors = certify_pfaffian(P, L.dim)
    if base(name) in UNCERTIFIED:
        assert factors is None
        return
    assert factors is not None
    product = factors.cofactor
    for form, e in zip(factors.forms, factors.exponents):
        assert math.gcd(*form) == 1 and next(c for c in form if c) > 0
        product = product * math.prod([linear(form)] * e)
    assert product == P
    xs = sympy.symbols(f"x0:{L.dim}")
    _, found = sympy.factor_list(to_sympy(P, xs))
    lin, rest = set(), sympy.Integer(1)
    for f, e in found:
        poly = sympy.Poly(f, *xs)
        if poly.total_degree() == 1:
            form = [int(poly.coeff_monomial(x)) for x in xs]
            sign = 1 if next(c for c in form if c) > 0 else -1
            lin.add((tuple(sign * c for c in form), e))
        else:
            rest *= f**e
    assert lin == set(zip(factors.forms, factors.exponents))
    # the cofactor is sympy's nonlinear part times a constant
    ratio = sympy.cancel(to_sympy(factors.cofactor, xs) / rest)
    assert ratio.is_number and ratio != 0


def test_chamber_counts_on_the_catalog_and_powers():
    counts = {"axb": 2, "axb_semidirect_plane": 2, "realified_borel": 1,
              "axb^2": 4, "axb^3": 8, "axb^4": 16}
    for name, want in counts.items():
        for case in (name, f"{name}~0", f"{name}~1"):
            L = CASES[case]()
            assert certify_pfaffian(pfaffian_poly(L), L.dim).chamber_count() == want, case


@pytest.mark.parametrize("name, chambers", [("axb^2", 4), ("axb_semidirect_plane", 2),
                                             ("realified_borel", 1)])
def test_every_seeded_conjugate_is_certified(name, chambers):
    # a factor vanishing at a fixed draw must not cost a line: the lines
    # are drawn through points where Pf is nonzero
    for seed in range(2, 42):
        L = conjugated(BASE[name](), seed)
        factors = certify_pfaffian(pfaffian_poly(L), L.dim)
        assert factors is not None and factors.chamber_count() == chambers, seed


def test_chamber_count_of_dependent_forms():
    # three lines through the origin of the plane cut it into six chambers
    x0, x1 = var(0), var(1)
    P = x0 * x1 * (x0 + x1)
    factors = certify_pfaffian(P, 2)
    assert factors.chamber_count() == 6 and len(factors.forms) == 3


x = [var(i) for i in range(6)]


class TestRefusals:
    def test_indefinite_rank_four_quadratic(self):
        P = x[0] * x[1] - x[2] * x[3]
        assert _semidefinite_rank(P, 4) == 0
        assert certify_pfaffian(P, 4) is None

    def test_semidefinite_ranks(self):
        assert _semidefinite_rank(x[0] * x[0] + x[1] * x[1], 2) == 2
        assert _semidefinite_rank(-(x[0] * x[0] + 2 * x[0] * x[1] + 5 * x[1] * x[1]), 3) == 2
        assert _semidefinite_rank(x[0] * x[0] - x[1] * x[1], 2) == 0
        assert _semidefinite_rank(x[1] * x[1], 3) == 1
        # positive semidefinite of rank 2 in a dense basis: (x0 + x1)^2 + (x1 - x2)^2
        Q = (x[0] + x[1]) * (x[0] + x[1]) + (x[1] - x[2]) * (x[1] - x[2])
        assert _semidefinite_rank(Q, 3) == 2
        assert certify_pfaffian(Q, 3).forms == ()

    def test_rank_one_cofactor(self):
        # a square factor is split off with its exponent, and a rank-1
        # quadratic cofactor would not be accepted
        P = (x[0] - x[1]) * (x[0] - x[1])
        factors = certify_pfaffian(P, 2)
        assert factors.forms == ((1, -1),) and factors.exponents == (2,)
        assert _semidefinite_rank(P, 2) == 1

    def test_irreducible_cubic_cofactor(self):
        cubic = x[1] * x[1] * x[2] - x[3] * x[3] * x[3] + x[1] * x[3] * x[2]
        assert certify_pfaffian(x[0] * cubic, 4) is None
        assert certify_pfaffian(pfaffian_poly(aff2()), 6) is None

    @pytest.mark.parametrize("name", ["aff2", "b(sp4)", "aff2~0", "b(sp4)~1"])
    def test_the_first_line_that_splits_decides(self, name, monkeypatch):
        # once every rational linear factor is divided out, the cofactor is
        # the same on every line, so a refused cofactor ends the search
        L = CASES[name]()
        P, rng, cofactors = pfaffian_poly(L), random.Random(5), set()
        for _ in range(12):
            a, b = ([rng.randint(-9, 9) for _ in range(L.dim)] for _ in range(2))
            split = P(a) and P(b) and _split_on_line(P, a, b)
            if split:
                cofactors.add((split[:2], tuple(sorted(split[2].terms.items()))))
        assert len(cofactors) == 1
        results = []
        real = coadjoint._split_on_line
        monkeypatch.setattr(coadjoint, "_split_on_line",
                            lambda *line: results.append(real(*line)) or results[-1])
        assert certify_pfaffian(P, L.dim) is None
        assert results[-1] is not None and not any(results[:-1])

    def test_a_shared_root_refuses_its_line_and_another_line_certifies(self):
        # l1 and l2 vanish at a + b, where the line a + x b meets both
        a, b = [3, -1, 2, 5], [1, 4, -2, 1]
        q = [u + v for u, v in zip(a, b)]
        u1, u2 = [2, 1, 0, 3], [-1, 5, 7, 2]
        qq = sum(c * c for c in q)
        forms = [[c * qq - sum(p * s for p, s in zip(u, q)) * s for c, s in zip(u, q)]
                 for u in (u1, u2)]
        P = linear(forms[0]) * linear(forms[1])
        assert P(a) and P(b) and _split_on_line(P, a, b) is None
        factors = certify_pfaffian(P, 4)  # the seeded lines meet them apart
        primitive = set()
        for form in forms:
            g = math.gcd(*form) * (1 if next(c for c in form if c) > 0 else -1)
            primitive.add(tuple(c // g for c in form))
        assert set(factors.forms) == primitive and factors.exponents == (1, 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_shared_roots_never_give_a_wrong_certificate(self, seed):
        # three forms through one point of the line a + x b, the third
        # squared, times a semidefinite quadratic of rank 2: that line is
        # refused, and the seeded lines give the exact certificate
        rng = random.Random(seed)
        n = 5
        a, b = ([rng.randint(-4, 4) for _ in range(n)] for _ in range(2))
        q = [u + 2 * v for u, v in zip(a, b)]
        qq = sum(c * c for c in q)
        forms = []
        for _ in range(3):
            u = [rng.randint(-3, 3) for _ in range(n)]
            forms.append([c * qq - sum(p * s for p, s in zip(u, q)) * s for c, s in zip(u, q)])
        if not all(any(f) for f in forms):
            return
        P = linear(forms[0]) * linear(forms[1]) * linear(forms[2]) * linear(forms[2])
        P = P * (x[3] * x[3] + x[4] * x[4])
        assert P(a) and P(b) and _split_on_line(P, a, b) is None
        factors = certify_pfaffian(P, n)
        product = factors.cofactor
        for form, e in zip(factors.forms, factors.exponents):
            product = product * math.prod([linear(form)] * e)
        assert product == P
        assert sorted(factors.exponents) == [1, 1, 2]
