"""Stratification of coadjoint space and module orbit layers.

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
the unique minimum in the index order.  Since B_{c xi} = c B_xi and a(x)(c v)
= c a(x) v, both stratifications compute one value per line through the
origin, but count every sample point; a layer's representative is its first.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .coadjoint import integer_bform
from .exact import common_denominator, kernel_int, matmul_int, rref_int, zi_rows
from .lie import LieAlgebra, LieModule, Subspace, centralizer_mod, checked_subalgebra


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


def _layers_by_line(points, value) -> dict:
    """value -> [number of points, first point as Fractions], with `value`
    called once per line through the origin, at its `_line_key`."""
    per_line: dict = {}
    layers: dict = {}
    for p in points:
        key = _line_key(p)
        if key not in per_line:
            per_line[key] = value(key)
        layers.setdefault(per_line[key], [0, p])[0] += 1
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
    buckets = _layers_by_line(pts, lambda p: jump_indices(L, flag, p, columns, tables))
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


# ---------------------------------------------------------------------------
# module orbit layers


@dataclass(frozen=True)
class ModuleStratum:
    orbit_dim: int
    isotropy_dim: int
    sample_count: int
    representative: tuple
    isotropy_basis: tuple  # basis of the stabilizer subalgebra at the representative
    open_layer: bool  # top layer whose perturbation probes stay in the layer


@dataclass(frozen=True)
class ModuleStratification:
    algebra_dim: int
    module_dim: int
    generic_dim: int
    strata: tuple  # ModuleStratum, descending orbit dimension
    exhaustive: bool
    notes: tuple


def _orbit_rows(ints, v) -> list:
    """The matrix of x -> a(x) v, one column per basis element, as integer
    rows: a positive multiple of it, with the same rank and kernel.  `ints`
    are the action matrices' integer rows, `common_denominator(M.actions)`."""
    w = zi_rows([v])[1][0]
    return list(zip(*([sum(x * y for x, y in zip(row, w) if x) for row in a] for a in ints)))


def _tangent_rank(ints, v) -> int:
    return len(rref_int(_orbit_rows(ints, v))[2])


def orbit_tangent_rank(M: LieModule, v) -> int:
    """Dimension of the orbit through v: rank of x -> a(x) v."""
    return _tangent_rank(common_denominator(M.actions)[1], v)


def point_isotropy(M: LieModule, v) -> Subspace:
    """Stabilizer subalgebra {x : a(x) v = 0}; verified closed under bracket."""
    kernel, _, _ = kernel_int(_orbit_rows(common_denominator(M.actions)[1], v), M.algebra.dim)
    return checked_subalgebra(M.algebra, kernel, "point stabilizer")


def stratify_module(
    M: LieModule, samples: int = 400, seed: int = 0
) -> ModuleStratification:
    """Layer module points by orbit dimension with openness probes.

    Each layer representative is perturbed by +/- 1/16 along every coordinate;
    rank lower semicontinuity demands the perturbed dimension never drops
    below the layer on a small enough step, and the top layer is flagged open
    when all its probes stay in the layer.
    """
    pts, exhaustive = _sample_points(M.dim, samples, seed)
    _, ints = common_denominator(M.actions)
    buckets = _layers_by_line(pts, lambda p: _tangent_rank(ints, p))
    eps = Fraction(1, 16)
    strata = []
    generic_dim = max(buckets)
    for d in sorted(buckets, reverse=True):
        count, rep = buckets[d]
        iso = point_isotropy(M, rep)
        probes = []
        for k in range(M.dim):
            for s in (eps, -eps):
                q = tuple(
                    rep[j] + s if j == k else rep[j] for j in range(M.dim)
                )
                probes.append(_tangent_rank(ints, q))
        open_layer = d == generic_dim and all(pd == d for pd in probes)
        strata.append(
            ModuleStratum(d, iso.dim, count, rep, iso.rows, open_layer)
        )
    notes = (
        f"{len(pts)} sample points, "
        + ("exhaustive integer grid" if exhaustive else "seeded integer samples"),
    )
    return ModuleStratification(
        M.algebra.dim, M.dim, generic_dim, tuple(strata), exhaustive, notes
    )
