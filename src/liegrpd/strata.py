"""Stratification of coadjoint space.

For a nilpotent algebra a full flag of ideals is built by refining the
ascending central series deterministically (standard basis vectors in
descending index order), every intermediate space between consecutive central
terms being automatically an ideal (checked a step at a time: the integer
brackets D [Y_i, v] of the vector v added to g_{j-1} must lie in g_j).  Each
functional gets a jump set: the flag steps not absorbed by its isotropy, read
off one elimination as the pivot columns of B_xi F, where the columns of F
form a basis adapted to the flag.  Over Q and Q(i) alike, B_p F at an
integral p is a sum of p_l times integer or Gaussian-integer tables built and
certified once per algebra, and the elimination runs fraction-free.  The size
of the jump set equals the rank of the skew form, and the generic jump set is
the unique minimum in the index order.  B_p F is a fixed linear function of r
integer forms q(p), read off the tables' pivot columns, so the jump set is
constant on each line of q(p) through the origin, and one is computed per
such line (2 / 9 / 50 on the grids of heisenberg / filiform4 / filiform5,
against 50 / 273 / 1,442 lines of p), grid and seeded samples alike.  Every
point is counted; a layer's representative is its first.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .coadjoint import integer_bform
from .exact import matmul_int, rref_int, zi_parts, zi_rows
from .lie import LieAlgebra, Subspace, centralizer_mod


def ascending_central_series(L: LieAlgebra) -> tuple:
    """0 = z_0 < z_1 < ... terminating; reaches the whole algebra iff nilpotent."""
    chain = [Subspace.zero(L.dim)]
    while chain[-1].dim < L.dim:
        nxt = centralizer_mod(L, chain[-1])
        if nxt.dim == chain[-1].dim:
            break
        chain.append(nxt)
    return tuple(chain)


def jordan_holder_flag(L: LieAlgebra) -> tuple:
    """Full flag of ideals 0 = g_0 < g_1 < ... < g_m, one dimension at a time.

    Built by refining the ascending central series; within each central step
    standard basis vectors are inserted in descending index order (falling
    back to the step's own reduced basis rows when the standard vectors do
    not lie in the step).  Only nilpotent algebras admit this construction
    over the rationals in general.
    """
    chain = ascending_central_series(L)
    m = L.dim
    if chain[-1].dim != m:
        raise ValueError("full ideal flags are constructed for nilpotent algebras")
    flag = [Subspace.zero(m)]
    for upper in chain[1:]:
        cur = flag[-1]
        candidates = [
            tuple(int(j == idx) for j in range(m)) for idx in range(m - 1, -1, -1)
        ] + list(upper.ints)
        for v in candidates:
            if cur.dim == upper.dim:
                break
            if upper.contains(v) and not cur.contains(v):
                cur = Subspace.from_vectors(m, cur.ints + (v,))
                # g_{j-1} is an ideal, so g_j = g_{j-1} + span(v) is one iff D [Y_i, v] lies in it
                if not all(cur.contains(w) for w in L.integer_brackets(v)):
                    raise AssertionError("flag member failed its ideal check")
                flag.append(cur)
        if cur.dim != upper.dim:
            raise AssertionError("flag refinement failed to reach the next term")
    return tuple(flag)


def _adapted_columns(flag: tuple) -> list:
    """The columns F of `jump_indices`, which depend on the flag only.

    Column j is the row f_j of g_j whose pivot is not a pivot of g_{j-1},
    returned as its integer row in `ints`, a positive multiple of it.
    """
    adapted = []
    for lower, upper in zip(flag, flag[1:]):
        old = set(lower.pivots)
        adapted.append(next(r for r, p in zip(upper.ints, upper.pivots) if p not in old))
    return adapted


def _integer_tables(L: LieAlgebra, columns) -> list:
    """Per coordinate l, the nonzero entries (j, i, c) of C_l F, where D B_p =
    sum_l p_l C_l at integral p (`L.integer_tensor`) and F has the integer
    columns `columns`; certified by `_certify_tables`."""
    prods = [{} for _ in range(L.dim)]
    for j, k, terms in L.integer_tensor:
        for l, c in terms:  # C_l[j][k] = c = -C_l[k][j]
            prod = prods[l]
            for i, f in enumerate(columns):
                prod[j, i] = prod.get((j, i), 0) + c * f[k]
                prod[k, i] = prod.get((k, i), 0) - c * f[j]
    tables = [[(j, i, c) for (j, i), c in prod.items() if c] for prod in prods]
    _certify_tables(L, columns, tables)
    return tables


def _certify_tables(L: LieAlgebra, columns, tables) -> None:
    """F has rank L.dim, and table l is the dense product of C_l =
    `integer_bform(L, e_l)` and F: then the matrix `jump_indices` sums is
    B_p F at every integral p, of the rank of B_p."""
    if len(rref_int(columns)[2]) != L.dim:
        raise AssertionError("the adapted columns are not a basis")
    for e, prod in zip(Subspace.full(L.dim).ints, tables):
        got = [[0] * L.dim for _ in columns]
        for j, i, c in prod:
            got[j][i] += c
        if matmul_int(integer_bform(L, e), list(zip(*columns))) != got:
            raise AssertionError("a table of B_p F is not the table of B_p times F")


def jump_indices(L: LieAlgebra, flag: tuple, xi, columns=None, tables=None) -> tuple:
    """1-based flag steps not absorbed by the isotropy of xi.

    j is a jump when g_j is not inside g_{j-1} + ker B_xi.  With f_j the row
    of g_j whose pivot is not a pivot of g_{j-1} (a basis adapted to the
    flag), that holds iff B_xi f_j is independent of B_xi f_1, ..., B_xi
    f_{j-1}: the jumps are the pivot columns of B_xi F, counted from 1.  Their
    number is the rank of the skew form at xi, as F is invertible.

    B_xi is taken as the integer form D B_{d xi} and the columns of F as
    integer rows; nonzero scalings keep the pivot columns, so they come from
    one `rref_int` on the integer matrix summed from `tables` =
    `_integer_tables(L, columns)`.  `columns` = `_adapted_columns(flag)` and
    `tables` are computed here when not passed in.
    """
    if columns is None:
        columns = _adapted_columns(flag)
    if tables is None:
        tables = _integer_tables(L, columns)
    _, (p,) = zi_rows([xi])
    bf = [[0] * L.dim for _ in columns]
    for pl, prod in zip(p, tables):
        if pl:
            for j, i, c in prod:
                bf[j][i] += pl * c
    return tuple(p + 1 for p in rref_int(bf)[2])


def index_order_leq(e: tuple, f: tuple) -> bool:
    """Partial order on jump sets: smaller sets dominate at earlier indices."""
    if tuple(e) == tuple(f):
        return True
    se, sf = set(e), set(f)
    left = min(se - sf) if se - sf else float("inf")
    right = min(sf - se) if sf - se else float("inf")
    return left <= right


@dataclass(frozen=True)
class CoadjointStratum:
    jump_set: tuple
    rank: int
    sample_count: int
    representative: tuple


@dataclass(frozen=True)
class CoadjointStratification:
    flag_dims: tuple
    strata: tuple  # CoadjointStratum, generic first
    generic_jump_set: tuple
    generic_rank: int
    exhaustive: bool  # True when the integer grid was fully enumerated
    notes: tuple


GRID_RADIUS = 2  # the exhaustive grid is {-2..2}^dim
SAMPLE_BOUND = 9  # seeded samples lie in {-9..9}^dim


def _sample_points(dim, extra_samples, seed):
    """(integer points, exhaustive): the whole grid {-2..2}^dim when it has at
    most 4,000 points, else `extra_samples` distinct seeded points."""
    grid_size = (2 * GRID_RADIUS + 1) ** dim
    if grid_size <= 4000:
        return list(itertools.product(range(-GRID_RADIUS, GRID_RADIUS + 1), repeat=dim)), True
    rng = random.Random(seed)
    pts, seen = [], set()
    while len(pts) < extra_samples:
        p = tuple(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in range(dim))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts, False


def _line_key(p: tuple) -> tuple:
    """The primitive multiple of the integer point p whose first nonzero
    entry is positive (p itself when p = 0): one key per line through 0."""
    g = math.gcd(*p)
    if g and next(x for x in p if x) < 0:
        g = -g
    return tuple(x // g for x in p) if g else p


def _projection_forms(tables) -> list:
    """Integer forms f_k, with B_p F a fixed linear function of q(p) =
    (sum_l p_l f_k[l])_k: T (row l the entries of table l) is T[:, C] A for
    its pivot columns C, so B_p F = (p^T T[:, C]) A.  A Gaussian-integer
    column gives its real and imaginary parts as two forms, since p is real."""
    spots = {(j, i): None for prod in tables for j, i, _ in prod}
    col = {spot: k for k, spot in enumerate(spots)}
    t = [[0] * len(col) for _ in tables]
    for row, prod in zip(t, tables):
        for j, i, c in prod:
            row[col[j, i]] = c
    return [f for k in rref_int(t)[2] for f in zip(*(zi_parts(row[k]) for row in t)) if any(f)]


def _layers_by_projection(points, forms, value) -> dict:
    """value -> (number of points, first point as Fractions), with `value`
    called once per line of q(p) (`_projection_forms`) through the origin,
    at its first point.

    Each point's q(p) is first packed as sum_k q_k 2^(w k) in balanced
    digits, one dot product of p; with |q_k| <= 9 sum_l |f_k[l]| < 2^(w - 1)
    on {-9..9}^dim, equal packings are equal q, so the line of q is found
    once per packing."""
    bound = max((SAMPLE_BOUND * sum(map(abs, f)) for f in forms), default=0)
    w = bound.bit_length() + 1
    units = [sum(c << (w * k) for k, c in enumerate(col)) for col in zip(*forms)]
    per_q: dict = {}
    per_line: dict = {}
    layers: dict = {}
    for p in points:
        v = sum(map(operator.mul, p, units))
        js = per_q.get(v)
        if js is None:
            key = _line_key(tuple([sum(map(operator.mul, p, f)) for f in forms]))
            js = per_line.get(key)
            if js is None:
                js = per_line[key] = value(p)
            per_q[v] = js
        layers.setdefault(js, [0, p])[0] += 1
    return {v: (n, tuple(Fraction(x) for x in p)) for v, (n, p) in layers.items()}


def coadjoint_stratification(
    L: LieAlgebra, samples: int = 400, seed: int = 0
) -> CoadjointStratification:
    """Group sample functionals by jump set and identify the generic stratum.

    When the integer grid is small enough it is enumerated exhaustively and
    the generic set is cross-checked against the index-order minimum; any
    disagreement is a hard error rather than a silent repair.
    """
    flag = jordan_holder_flag(L)
    columns = _adapted_columns(flag)
    tables = _integer_tables(L, columns)
    pts, exhaustive = _sample_points(L.dim, samples, seed)
    buckets = _layers_by_projection(
        pts, _projection_forms(tables), lambda p: jump_indices(L, flag, p, columns, tables)
    )
    strata = [
        CoadjointStratum(js, len(js), count, rep)
        for js, (count, rep) in buckets.items()
    ]
    strata.sort(key=lambda s: (-s.rank, s.jump_set))
    max_rank = strata[0].rank
    top_sets = [s.jump_set for s in strata if s.rank == max_rank]
    minima = [
        e for e in top_sets if all(index_order_leq(e, f) for f in top_sets)
    ]
    if len(minima) != 1:
        raise AssertionError(
            f"no unique index-order minimum among top jump sets {top_sets}"
        )
    generic = minima[0]
    all_sets = [s.jump_set for s in strata]
    if not all(index_order_leq(generic, f) for f in all_sets):
        raise AssertionError(
            "generic jump set is not an index-order lower bound of the census"
        )
    strata.sort(key=lambda s: (s.jump_set != generic, -s.rank, s.jump_set))
    notes = (
        f"{len(pts)} sample functionals, "
        + ("exhaustive integer grid" if exhaustive else "seeded integer samples"),
    )
    return CoadjointStratification(
        tuple(s.dim for s in flag),
        tuple(strata),
        generic,
        max_rank,
        exhaustive,
        notes,
    )
