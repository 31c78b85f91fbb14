"""Coadjoint orbit structure: skew forms, isotropy, open-orbit census.

Every skew form B_xi = xi([., .]) is laid out by `_form_rows` from one value
per entry of the bracket table.  `_form_values` computes the values from the
integer table D C (`LieAlgebra.integer_tensor`) at the point times s, so
every form, rank and kernel comes from the integer form D s B_xi.

The open orbits are the components of {Pf != 0} (det B = Pf(B)^2).  Within
`PF_TERM_BUDGET` the census runs `pfaffian_int` on the symbolic form's `Poly`
rows; Pf = 0 means no open orbit.  When `certify_pfaffian` splits Pf into
linear forms l_i and a cofactor that vanishes only in codimension >= 2, the
components are the chambers of {l_i = 0}: samples are classed by their sign
vectors.  Otherwise two integer samples are joined only when Pf, an exact
polynomial of degree dim/2 along the segment between them, has no root on it
(opposite signs at the ends, or a Sturm count on integers).  A probe class
never spans two components, but a missed connection can split one.  The first
kept sample is the open-orbit witness.  The eigenvalue -1 probe is exact too:
it reads the purely imaginary eigenvalues of ad(x) off an integer
characteristic polynomial, so the module holds no float.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    Matrix,
    Poly,
    charpoly_int,
    imaginary_integer_roots,
    newton_interpolate,
    kernel_int,
    pfaffian_int,
    poly_eval,
    rref_int,
    sturm_root_count,
    zi,
    zi_rows,
)
from .lie import LieAlgebra, Subspace, ad_matrix, center_of, checked_subalgebra
from .weights import algebra_is_exponential


def bform(L: LieAlgebra, xi: Sequence) -> Matrix:
    """Skew form B(x, y) = xi([x, y]) as a dim x dim matrix over the basis:
    the integer form D B_{s xi} over D s, s clearing xi's denominators."""
    s, (p,) = zi_rows([xi])
    return Matrix.scaled(_form_rows(L, _form_values(L, p)), L.integer_scale * s)


def integer_bform(L: LieAlgebra, xi) -> list:
    """The integer form D B_{s xi} as int or GaussInt rows, s clearing xi's
    denominators: a nonzero multiple of B_xi, with its rank and kernel."""
    _, (p,) = zi_rows([xi])
    return _form_rows(L, _form_values(L, p))


def _form_values(L: LieAlgebra, p) -> list:
    """Entries sum_l D c_jkl p_l of the integer form D B_p, one per (j, k) of
    `L.integer_tensor`, at an int or GaussInt point p."""
    out = []
    for _, _, terms in L.integer_tensor:
        acc = 0
        for l, c in terms:
            acc += c * p[l]
        out.append(acc)
    return out


def _form_rows(L: LieAlgebra, values) -> list:
    """The skew form with the entries `values` at the (j, k) slots of
    `L.brackets` (which `L.integer_tensor` lists in the same order), as rows."""
    m = L.dim
    rows = [[0] * m for _ in range(m)]
    for (j, k, _), v in zip(L.brackets, values):
        rows[j][k], rows[k][j] = v, -v
    return rows


def orbit_dimension(L: LieAlgebra, xi: Sequence) -> int:
    """Rank of the skew form (always even), the pivot count of its integer form."""
    return len(rref_int(integer_bform(L, xi))[2])


def is_open_orbit(L: LieAlgebra, xi: Sequence) -> bool:
    return orbit_dimension(L, xi) == L.dim


def isotropy_algebra(L: LieAlgebra, xi: Sequence) -> Subspace:
    """Kernel of the integer skew form, verified to be a subalgebra."""
    return checked_subalgebra(L, kernel_int(integer_bform(L, xi), L.dim)[0], "isotropy")


# ---------------------------------------------------------------------------
# the Pfaffian as a polynomial, and its certified linear factors


def pfaffian_poly(L: LieAlgebra) -> Poly:
    """Pf of the symbolic form D B_xi, homogeneous of degree dim/2 in xi
    (zero when Pf vanishes identically), by `pfaffian_int` on `Poly` rows."""
    xi = [Poly({(l,): 1}) for l in range(L.dim)]
    return Poly.lift(pfaffian_int(_form_rows(L, _form_values(L, xi))))


@dataclass(frozen=True)
class PfaffianFactors:
    """Pf = cofactor * prod forms[i]^exponents[i]: distinct primitive integer
    linear forms, and a nonzero constant or semidefinite quadratic of rank
    >= 2, which vanishes only in codimension >= 2, so the chambers of
    {l_i = 0} are the components of {Pf != 0}."""

    forms: tuple
    exponents: tuple
    cofactor: Poly

    def signs(self, w):
        """The sign vector (l_i(w) > 0) at w, or None where Pf(w) = 0."""
        values = [sum(c * x for c, x in zip(form, w)) for form in self.forms]
        return None if 0 in values or not self.cofactor(w) else tuple(v > 0 for v in values)

    def chamber_count(self) -> int:
        """Zaslavsky's count: the sum over subsets B of the forms of
        (-1)^(|B| - rank B), which is 2^m for m independent forms."""
        return sum((-1) ** (k - len(rref_int(B)[2])) for k in range(len(self.forms) + 1)
                   for B in itertools.combinations(self.forms, k))


def certify_pfaffian(P: Poly, n: int):
    """`PfaffianFactors` of the nonzero homogeneous P in n variables, or None.

    a and b are drawn from [-10, 10]^n where P != 0.  On the line a + x b
    every rational linear factor l^e of P has a rational root of multiplicity
    e, unless another factor vanishes there too; then `_split_on_line` fails
    and the next line is tried, three at most.  Once it succeeds, the
    cofactor left has no rational linear factor, so no line would change it.
    """
    rng = random.Random(0)
    draws = ([rng.randint(-10, 10) for _ in range(n)] for _ in range(60))
    points = (p for p in draws if P(p))
    for _, a, b in zip(range(3), points, points):
        split = _split_on_line(P, a, b)
        if split:
            forms, exponents, rest = split
            degree = max(map(len, rest.terms))
            if degree == 0 or degree == 2 and _semidefinite_rank(rest, n) >= 2:
                return PfaffianFactors(forms, exponents, rest)
            return None
    return None


def _split_on_line(P: Poly, a, b):
    """(forms, exponents, P / prod forms^exponents) from the rational roots of
    f = P(a + x b), P(a) P(b) != 0, or None.  At a root of multiplicity e the
    gradient of the (e-1)st derivative of P along b is a multiple of the
    factor l, kept only if l^e divides P exactly."""
    h = max(map(len, P.terms))  # the rational roots are w / lead, w the integer
    # roots of the monic lead^(h-1) f(y / lead), found by Sturm bisection
    f = newton_interpolate([P([x + k * y for x, y in zip(a, b)]) for k in range(h + 1)])
    content = math.gcd(*f)
    f = [c // content for c in f]
    lead = f[-1]
    monic = [c * lead ** (h - 1 - k) for k, c in enumerate(f[:-1])] + [1]
    rest, forms, exponents = P, [], []
    units = (1, zi(0, -1), -1, zi(0, 1))  # (-i)^k
    for w in imaginary_integer_roots([c * units[k % 4] for k, c in enumerate(monic)]):
        e, d, g, r = 0, monic, P, Fraction(w, lead)
        while poly_eval(d, w) == 0:
            e, d = e + 1, [k * c for k, c in enumerate(d)][1:]
        for _ in range(e - 1):
            g = sum((y * g.diff(i) for i, y in enumerate(b) if y), 0)
        q = [r.denominator * x + r.numerator * y for x, y in zip(a, b)]  # v (a + r b)
        grad = [g.diff(j)(q) for j in range(len(q))]
        first = next((x for x in grad if x), 0)
        if not first:
            return None
        c = math.gcd(*grad) * (1 if first > 0 else -1)
        forms.append(tuple(x // c for x in grad))
        exponents.append(e)
        try:
            rest //= math.prod([Poly({(j,): x for j, x in enumerate(forms[-1]) if x})] * e)
        except ArithmeticError:
            return None
    return tuple(forms), tuple(exponents), rest


def _semidefinite_rank(Q: Poly, n: int) -> int:
    """The rank of the quadratic form Q if an exact LDL^T shows it is
    semidefinite, else 0.  Its Hessian is eliminated on the diagonal, each
    step scaled by |pivot|, so the pivots keep the signs of D; a zero pivot
    with a nonzero row left makes Q indefinite."""
    a = [[Q.terms.get((min(i, j), max(i, j)), 0) * (1 + (i == j)) for j in range(n)]
         for i in range(n)]
    signs = []
    for k, row in enumerate(a):
        p, s = row[k], 1 if row[k] > 0 else -1
        if p == 0 and any(row[k + 1:]):
            return 0
        if p:
            signs.append(s)
            for r in a[k + 1:]:
                r[k:] = [abs(p) * x - s * r[k] * y for x, y in zip(r[k:], row[k:])]
    return len(signs) if len(set(signs)) == 1 else 0


# ---------------------------------------------------------------------------
# open-component census


def _det_at(L, xi) -> int:
    """Pf of the integer form D B_{d xi}, d clearing xi's denominators.

    Pf is homogeneous of degree dim/2 and det B = Pf(B)^2, so the value is
    zero exactly where det B_xi is and has the sign of Pf(B_xi).
    """
    return pfaffian_int(integer_bform(L, xi))


def _segment_nondegenerate(L: LieAlgebra, a, b, ends=None) -> bool:
    """Exact check that Pf B, hence det B = Pf(B)^2, stays nonzero on [a, b].

    Rational endpoints are first scaled by their positive common denominator,
    which keeps every zero and sign of the homogeneous Pf.  With h = dim/2,
    q(k) = Pf(D B) at h a + k (b - a) is a polynomial of degree at most h.
    Endpoints of opposite sign are rejected at once (intermediate values).
    Otherwise q is evaluated at the interior nodes k = 1..h-1, stopping at a
    zero or a sign change; then the integer polynomial h! q is interpolated
    from the h + 1 node values and its roots in (0, h] are counted by an
    integer Sturm chain.  `ends` may carry (_det_at(a), _det_at(b)) for
    integer endpoints, so a kept sample's Pfaffian is computed once.
    """
    h = L.dim // 2
    d, (ia, ib) = zi_rows([a, b])
    if ends is None or d != 1:
        ends = (_det_at(L, ia), _det_at(L, ib))
    pa, pb = ends
    if pa == 0 or pb == 0 or (pa > 0) != (pb > 0):
        return False
    scale = h**h  # q(0) = Pf(D B_{h a}) = h^h Pf(D B_a)
    values = [pa * scale]
    fa, fb = _form_values(L, ia), _form_values(L, ib)
    for k in range(1, h):
        v = pfaffian_int(_form_rows(L, [(h - k) * x + k * y for x, y in zip(fa, fb)]))
        if v == 0 or (v > 0) != (pa > 0):
            return False
        values.append(v)
    values.append(pb * scale)
    return sturm_root_count(newton_interpolate(values), 0, h) == 0


# Pf is expanded when C(v + h, h), which bounds its terms and those of every
# entry `pfaffian_int` makes (degree <= h = dim/2 in the v coordinates the
# bracket reaches), is at most this: 84 in dense dimension 6, a 2 ms expansion;
# 495 in dense dimension 8 takes 70 ms (BENCH_39.json, "expansion_cut").
PF_TERM_BUDGET = 84


@dataclass(frozen=True)
class ComponentCensus:
    """The classes `open_component_census` found.  `representatives[0]`, when
    there is one, is the first kept sample: a point with a nonzero Pfaffian,
    so it witnesses an open orbit."""

    component_count: int
    representatives: tuple  # one exact point per component
    component_sizes: tuple
    negation_pairing: tuple  # (i, j): negating component i lands in j
    even: bool  # count is even and no component is negation-fixed
    exponential: bool  # evenness is asserted only when this is True
    heuristic_weights: bool
    nondegenerate_samples: int
    notes: tuple
    certified_open_orbits: int | None = None  # the chamber count of a certified Pf
    dense_open_orbit: bool | None = None  # that count is 1


def open_component_census(L: LieAlgebra, samples: int = 512, seed: int = 0) -> ComponentCensus:
    """Census of connected components of the nondegenerate set.

    Integer points in [-10, 10]^dim, each with its negation, are kept when
    the Pfaffian of the skew form is nonzero, until `samples` are kept or
    40 * samples points are drawn; none is drawn when Pf = 0 (within
    `PF_TERM_BUDGET`) or, beyond it, when the center is nonzero.  Where
    `certify_pfaffian` splits Pf, each class is the kept samples of one sign
    vector, exactly one component, and `certified_open_orbits` counts them
    all.  Otherwise exact segment probes join samples: they can miss
    connections but never create false ones.  Merges only extend earlier
    classes, so the first kept sample stays the first representative and
    witnesses an open orbit.  A nonzero Pf vanishes at each draw with
    probability at most dim/42 (Schwartz-Zippel).
    """
    if L.field != "Q":
        raise ValueError("the census works over the rational field; realify first")
    m = L.dim
    rng = random.Random(seed)
    exp_result = algebra_is_exponential(L)
    h, reached = m // 2, {l for _, _, terms in L.integer_tensor for l, _ in terms}
    if m % 2 or math.comb(len(reached) + h, h) <= PF_TERM_BUDGET:  # odd: Pf = 0 at once
        P = pfaffian_poly(L)
        factors, degenerate = certify_pfaffian(P, m) if P else None, not P
    else:  # a center z: B_xi(z, .) = xi([z, .]) = 0
        factors, degenerate = None, center_of(L).dim > 0
    # a kept sample's class key: its sign vector, or its Pfaffian for the probes
    key = factors.signs if factors else (lambda w: _det_at(L, w) or None)
    kept = []
    pf = {}  # kept integer sample -> its key
    seen = set()
    attempts = 0
    budget = 0 if degenerate else 40 * samples
    while len(kept) < samples and attempts < budget:
        attempts += 1
        v = tuple(rng.randint(-10, 10) for _ in range(m))
        for w in (v, tuple(-x for x in v)):
            if w in seen or all(x == 0 for x in w):
                continue
            seen.add(w)
            k = key(w)
            if k is not None:
                kept.append(w)
                pf[w] = k

    def joins(u, v):
        if factors:  # one sign vector, one chamber
            return pf[u] == pf[v]
        return _segment_nondegenerate(L, u, v, (pf[u], pf[v]))

    notes = [f"census from {len(kept)} nondegenerate integer samples; " + (
        f"Pf is certified as {len(factors.forms)} rational linear factor(s) times a"
        " cofactor that vanishes only in codimension >= 2, so each class, a sign"
        " vector of the factors, is exactly one component" if factors else
        "no class spans two components (probes are exact), but a missed"
        " connection can split one component into several classes")]
    components: list[list] = []
    for s in kept:
        joined = False
        for comp in components:
            for member in dict.fromkeys(comp[:2] + comp[-2:]):
                if joins(s, member):
                    comp.append(s)
                    joined = True
                    break
            if joined:
                break
        if not joined:
            components.append([s])

    def merge_pass():
        nonlocal components
        changed = False
        i = 0
        while i < len(components):
            j = i + 1
            while j < len(components):
                hit = False
                for u in components[i][:6]:
                    for v in components[j][:6]:
                        if joins(u, v):
                            hit = True
                            break
                    if hit:
                        break
                if hit:
                    components[i].extend(components[j])
                    del components[j]
                    changed = True
                else:
                    j += 1
            i += 1
        return changed

    for _ in range(3):
        if not merge_pass():
            break

    reps = tuple(tuple(Fraction(x) for x in comp[0]) for comp in components)
    sizes = tuple(len(comp) for comp in components)
    index_of = {}
    for idx, comp in enumerate(components):
        for s in comp:
            index_of[s] = idx
    pairing = []
    for idx, rep in enumerate(reps):
        neg = tuple(-x for x in rep)
        pairing.append((idx, index_of.get(neg, -1)))
    even = (
        len(components) % 2 == 0
        and all(j != i and j != -1 for i, j in pairing)
    )
    count = factors.chamber_count() if factors else None
    return ComponentCensus(
        len(components),
        reps,
        sizes,
        tuple(pairing),
        even,
        exp_result.verdict and not exp_result.heuristic,
        exp_result.heuristic,
        len(kept),
        tuple(notes),
        count,
        None if count is None else count == 1,
    )


# ---------------------------------------------------------------------------
# eigenvalue -1 probe


@dataclass(frozen=True)
class MinusOneProbe:
    found: bool
    direction: tuple | None  # rational direction x
    t_label: str | None  # t = (k/8)pi as "(k/8)pi"
    eigenvalue: Fraction | None  # the exact -1 when found


def minus_one_probe(L: LieAlgebra, seed: int = 0) -> MinusOneProbe:
    """Scan exp(t ad x) for an eigenvalue -1 over the basis and five seeded
    random directions x, at t = k/8 and (k/8)pi for k = 1..24; report the
    least k of the first direction with a hit.

    exp(t A) has the eigenvalue -1 exactly when A = ad(x) has an eigenvalue
    mu with t mu = i pi (2j + 1).  mu is algebraic, so no rational t hits.
    With A = N/s, N integral, mu = iw/s for a root iw of the monic
    P = charpoly_int(N): w is a rational algebraic integer, an integer, and
    t = (k/8)pi hits exactly when wk/(8s) is odd.  An index whose row or
    column of N is zero adds only a factor lambda to P, so it is dropped.
    """
    m, rng = L.dim, random.Random(seed)
    drawn = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(m)) for _ in range(5)]
    basis = [tuple(Fraction(int(j == i)) for j in range(m)) for i in range(m)]
    for x in basis + [v for v in drawn if any(v)]:
        ad = ad_matrix(L, x)
        n, q = ad.ints, 8 * ad.denominator
        live = [i for i in range(m) if any(n[i]) and any(row[i] for row in n)]
        ws = imaginary_integer_roots(charpoly_int([[n[i][j] for j in live] for i in live]))
        for k in range(1, 25):
            if any(w * k % q == 0 and w * k // q % 2 for w in ws):
                return MinusOneProbe(True, x, f"({k}/8)pi", Fraction(-1))
    return MinusOneProbe(False, None, None, None)
