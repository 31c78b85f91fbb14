"""Coadjoint orbit structure: skew forms, isotropy, open-orbit census.

Every skew form B_xi = xi([., .]) is laid out by `_form_rows` from one value
per entry of the bracket table.  `_form_values` computes the values from the
integer table D C (`LieAlgebra.integer_tensor`) at the point times s, so
every form, rank and kernel comes from the integer form D s B_xi.

The census works on integer sample points and integer Pfaffians: det B =
Pf(B)^2, so both vanish at the same points.  Two nondegenerate samples are
joined only when the Pfaffian of the skew form along the straight segment
between them, an exact polynomial of degree at most dim/2, has no root on the
segment.  Endpoints whose Pfaffians differ in sign are rejected at once, since
a sign change forces a root; otherwise the polynomial is interpolated and its
roots are counted by a Sturm chain, both on integers.
False merges are therefore impossible: samples from different components
never share a class, though a connection the straight probes miss can split
one component into several classes.  The census's first kept sample is
the open-orbit witness.  The eigenvalue -1 probe is exact too: it reads
the purely imaginary eigenvalues of ad(x) off an integer characteristic
polynomial, so the module holds no float.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    Matrix,
    charpoly_int,
    imaginary_integer_roots,
    newton_interpolate,
    kernel_int,
    pfaffian_int,
    rref_int,
    sturm_root_count,
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


def _always_degenerate(L: LieAlgebra) -> bool:
    """B_xi is singular for every xi: odd dimension, or a nonzero center z
    (B_xi(z, .) = xi([z, .]) = 0)."""
    return L.dim % 2 == 1 or center_of(L).dim > 0


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


def open_component_census(L: LieAlgebra, samples: int = 512, seed: int = 0) -> ComponentCensus:
    """Census of connected components of the nondegenerate set.

    Integer points in [-10, 10]^dim, each with its negation, are kept when
    the Pfaffian of the skew form is nonzero, until `samples` are kept or
    40 * samples points are drawn; connections are established by exact
    segment probes only.  Probes can miss connections but never create false
    ones, so each class lies inside one component of the nondegenerate set.
    No point is drawn when every skew form is singular.

    Merges only extend earlier classes, so the first kept sample stays the
    first representative and witnesses an open orbit.  A census that keeps
    nothing proves nothing: by the Schwartz-Zippel bound a Pfaffian that is
    not identically zero, a polynomial of degree dim/2, vanishes at each
    draw with probability at most dim/42, so such misses decay geometrically
    in the number of draws.
    """
    if L.field != "Q":
        raise ValueError("the census works over the rational field; realify first")
    m = L.dim
    rng = random.Random(seed)
    exp_result = algebra_is_exponential(L)
    kept = []
    pf = {}  # kept integer sample -> _det_at value
    seen = set()
    attempts = 0
    budget = 0 if _always_degenerate(L) else 40 * samples
    while len(kept) < samples and attempts < budget:
        attempts += 1
        v = tuple(rng.randint(-10, 10) for _ in range(m))
        for w in (v, tuple(-x for x in v)):
            if w in seen or all(x == 0 for x in w):
                continue
            seen.add(w)
            p = _det_at(L, w)
            if p != 0:
                kept.append(w)
                pf[w] = p

    def joins(u, v):
        return _segment_nondegenerate(L, u, v, (pf[u], pf[v]))

    notes = [
        f"census from {len(kept)} nondegenerate integer samples;"
        " no class spans two components (probes are exact), but a missed"
        " connection can split one component into several classes"
    ]
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
