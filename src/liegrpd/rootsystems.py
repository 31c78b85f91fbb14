"""Finite crystallographic root systems and the cascade of highest roots.

A positive root sum c_i alpha_i has coefficients 0..6, so the search keys it
by the int sum c_i 16^i: beta - alpha_i is one subtraction and a string probe
one dict lookup.  Positive roots are generated from the simple roots by
breadth-first search on height, using the root-string criterion: beta +
alpha_j is a root exactly when p > <beta, alpha_j^vee>, where p is the depth
of the alpha_j-string below beta; the pairings of beta + alpha_j are those of
beta plus row j of the integer Cartan matrix, which must be the family's.
Each new root's doubled coordinates 2r (every root lies in (1/2)Z^n) are
built once; Fraction tuples only for the roots a report prints.  The
cascade takes the highest root of each irreducible component, keeps the
roots orthogonal to it, which are those on the simple roots it pairs to zero
with, and recurses on Dynkin subdiagrams; its members are pairwise strongly
orthogonal.  The Borel subalgebra of the split form has an open coadjoint
orbit precisely when the cascade is as large as the rank.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, mul


def _chain(l: int) -> list:
    return [(i, i + 1, -1, -1) for i in range(l - 1)]  # alpha_1 - ... - alpha_l


# family: (least rank, greatest rank, positive-root count, the bonds (i, j,
# a_ij, a_ji), i < j, of its Dynkin diagram in Bourbaki's numbering (Humphreys,
# 11.4), off which a_ij = <alpha_i, alpha_j^vee> is 0 but on the diagonal)
_FAMILIES = {
    "A": (1, None, lambda l: l * (l + 1) // 2, _chain),
    "B": (2, None, lambda l: l * l, lambda l: _chain(l - 1) + [(l - 2, l - 1, -2, -1)]),
    "C": (2, None, lambda l: l * l, lambda l: _chain(l - 1) + [(l - 2, l - 1, -1, -2)]),
    "D": (3, None, lambda l: l * (l - 1), lambda l: _chain(l - 1) + [(l - 3, l - 1, -1, -1)]),
    "E": (6, 8, lambda l: {6: 36, 7: 63, 8: 120}[l],
          lambda l: [(0, 2, -1, -1), (1, 3, -1, -1)] + _chain(l)[2:]),  # alpha_2 on alpha_4
    "F": (4, 4, lambda l: 24, lambda l: [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)]),
    "G": (2, 2, lambda l: 6, lambda l: [(0, 1, -1, -3)]),
}


def _root(n: int, *entries) -> tuple:
    """The doubled root in Z^n with the entries (i, x), zero elsewhere."""
    v = [0] * n
    for i, x in entries:
        v[i] = x
    return tuple(v)


def _dot(a, b):
    return sum(map(mul, a, b))


def _simple_roots(family: str, rank: int):
    """Simple roots in doubled coordinates 2 alpha."""
    l = rank
    if family == "A":
        return [_root(l + 1, (i, 2), (i + 1, -2)) for i in range(l)]
    chain = [_root(l, (i, 2), (i + 1, -2)) for i in range(l - 1)]  # e_i - e_{i+1}
    if family == "B":
        return chain + [_root(l, (l - 1, 2))]
    if family == "C":
        return chain + [_root(l, (l - 1, 4))]
    if family == "D":
        return chain + [_root(l, (l - 2, 2), (l - 1, 2))]
    if family == "E":
        chain = [_root(8, (i, -2), (i + 1, 2)) for i in range(6)]  # e_{i+1} - e_i
        return [(1, -1, -1, -1, -1, -1, -1, 1), _root(8, (0, 2), (1, 2))] + chain[:rank - 2]
    if family == "F":
        return [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    if family == "G":
        return [(2, -2, 0), (-4, 2, 2)]
    raise ValueError(f"unknown family {family!r}")


def _halve(roots) -> tuple:
    """The Fraction tuples r/2 of doubled roots r, one Fraction per distinct value."""
    half = {x: Fraction(x, 2) for x in set().union(*roots)}
    return tuple(tuple(map(half.__getitem__, r)) for r in roots)


_BITS = 4  # a root is sum c_i alpha_i, keyed by sum c_i 16^i; c_i <= 6 (in E8)


@dataclass(frozen=True)
class RootSystem:
    name: str
    family: str
    rank: int
    ambient_dim: int
    heights: tuple  # parallel to doubled_roots
    doubled_roots: tuple  # 2r as int tuples, sorted by (height, 2r)
    keys: tuple = field(repr=False, compare=False)  # sum c_i 16^i, parallel
    cartan: tuple = field(repr=False, compare=False)  # cartan[i][j] = <alpha_i, alpha_j^vee>

    @cached_property  # the Fraction tuples r that reports print, built on first read
    def positive_roots(self) -> tuple:
        return _halve(self.doubled_roots)

    @cached_property
    def simple_roots(self) -> tuple:
        return _halve(_simple_roots(self.family, self.rank))


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the named system and generate its positive roots exactly."""
    family = family.upper()
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    lo, hi, count, diagram = _FAMILIES[family]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"{family}{rank} is out of range (rank >= {lo}"
                         + (f", <= {hi})" if hi is not None else ")"))
    simples = _simple_roots(family, rank)
    lower = [[_dot(a, b) for b in simples[:i + 1]] for i, a in enumerate(simples)]
    gram = [row + [lower[j][i] for j in range(i + 1, rank)] for i, row in enumerate(lower)]
    norms = [row[-1] for row in lower]
    cartan = tuple(tuple(2 * g // n for g, n in zip(row, norms)) for row in gram)
    units = [1 << _BITS * i for i in range(rank)]
    expected = count(rank)
    height = dict.fromkeys(units, 1)
    pairing = dict(zip(units, cartan))  # key -> (<beta, alpha_j^vee>)_j
    doubled = dict(zip(units, simples))
    frontier = list(units)
    while frontier and len(height) <= expected:  # a wrong string test fails, not hangs
        nxt = []
        for beta in frontier:
            pairs = pairing[beta]
            for j, c in enumerate(pairs):
                p, unit = 0, units[j]
                if c >= 0:  # else p > c at once
                    probe = beta - unit  # a borrow leaves the digit 15, never a root's
                    while probe in height:
                        p += 1
                        probe -= unit
                if p > c:  # p - <beta, alpha_j^vee> > 0
                    cand = beta + unit
                    if cand not in height:
                        height[cand] = height[beta] + 1
                        pairing[cand] = tuple(map(add, pairs, cartan[j]))
                        doubled[cand] = tuple(map(add, doubled[beta], simples[j]))
                        nxt.append(cand)
        frontier = nxt
    keys = sorted(height, key=lambda k: (height[k], doubled[k]))
    name = f"{family}{rank}"
    if len(keys) != expected:
        raise AssertionError(f"{name}: generated {len(keys)} positive roots, expected {expected}")
    # every 2 (alpha_i, alpha_j) / |alpha_j|^2 is the family's a_ij when the Gram matrix
    # is 0 off the diagonal and the bonds, on which 2 (alpha_i, alpha_j) = a_ij |alpha_j|^2
    bonds = diagram(rank)
    if sum(len(row) - row.count(0) for row in lower) != rank + len(bonds) or any(
            not 2 * gram[i][j] == a_ij * norms[j] == a_ji * norms[i] for i, j, a_ij, a_ji in bonds):
        raise AssertionError(f"{name}: the ratios 2(alpha_i, alpha_j) / (alpha_j, alpha_j) "
                             f"of the simple roots are not the Cartan matrix of {name}")
    return RootSystem(
        name,
        family,
        rank,
        len(simples[0]),
        tuple(height[k] for k in keys),
        tuple(doubled[k] for k in keys),
        tuple(keys),
        cartan,
    )


def _check_strongly_orthogonal(cascade, keys) -> None:
    """Raise unless the members (key, 2r) of `cascade` are pairwise orthogonal
    and no sum or difference of two of them is in the set `keys` of positive
    roots: key digits are coefficients 0..6, so k_a + k_b never carries and a
    borrow in k_a - k_b leaves a digit >= 10; -(a + b) is never positive."""
    for i, (ka, a) in enumerate(cascade):
        for kb, b in cascade[i + 1 :]:
            if _dot(a, b) != 0:
                raise AssertionError("cascade members are not orthogonal")
            if ka + kb in keys or abs(ka - kb) in keys:
                raise AssertionError("cascade members are not strongly orthogonal")


def kostant_cascade(rs: RootSystem) -> tuple:
    """Strongly orthogonal set built from recursive highest roots.

    The roots supported on a connected Dynkin subdiagram form an irreducible
    subsystem; its unique root theta of maximal height is dominant, so the
    roots orthogonal to it are those supported on the simple roots alpha_i
    with <theta, alpha_i^vee> = 0 (Humphreys, Introduction to Lie Algebras,
    10.4).  The recursion runs on those subdiagrams, visiting components in
    order of their least root.  The result is validated: pairwise orthogonal,
    and no sum or difference of two members is a root.
    """
    bits = [15 << _BITS * i for i in range(rs.rank)]  # the digit of alpha_i in a key
    adjacent = [sum(b for b, c in zip(bits, row) if c) for row in rs.cartan]
    coroots = list(zip(*rs.cartan))  # coroots[i][k] = <alpha_k, alpha_i^vee>
    cascade = []  # (key, 2r) of each member

    def recurse(mask, roots):
        comps = []  # the connected Dynkin subdiagrams on the simple roots in mask
        for b, adj in zip(bits, adjacent):
            if mask & b:  # join alpha_i to the subdiagrams it is linked to
                comps = [c for c in comps if not c & adj] + [b + sum(c for c in comps if c & adj)]
        comps = [[r for r in roots if not r[0] & ~c] for c in comps]  # the roots on each
        if len(comps) > 1:
            comps.sort(key=lambda comp: min(r[2] for r in comp))
        for comp in comps:
            key, top, theta = comp[-1]  # comp is sorted by height
            if len(comp) > 1 and comp[-2][1] == top:
                raise AssertionError(f"component has {sum(r[1] == top for r in comp)} "
                                     "height maxima; expected one")
            cascade.append((key, theta))
            coeffs = [key >> _BITS * k & 15 for k in range(rs.rank)]
            zero = sum(b for b, col in zip(bits, coroots)  # theta's support is its component
                       if key & b and not sum(map(mul, coeffs, col)))
            if zero:
                recurse(zero, comp)

    recurse(sum(bits), list(zip(rs.keys, rs.heights, rs.doubled_roots)))
    _check_strongly_orthogonal(cascade, set(rs.keys))
    return _halve([r for _, r in cascade])


@dataclass(frozen=True)
class OpenOrbitReport:
    name: str
    rank: int
    positive_count: int
    cascade: tuple
    cascade_size: int
    has_open_orbit: bool  # cascade_size == rank


def open_orbit_rank_test(rs: RootSystem) -> OpenOrbitReport:
    cascade = kostant_cascade(rs)
    return OpenOrbitReport(
        rs.name,
        rs.rank,
        len(rs.doubled_roots),
        cascade,
        len(cascade),
        len(cascade) == rs.rank,
    )


def systems_up_to(max_rank: int):
    """(family, rank) for every system of rank <= max_rank, family by family."""
    for family, (lo, hi, _, _) in _FAMILIES.items():
        top = min(hi, max_rank) if hi is not None else max_rank
        for rank in range(lo, top + 1):
            yield family, rank


def cascade_classification(max_rank: int = 8) -> dict:
    """has_open_orbit verdict for every system of rank <= max_rank."""
    out = {}
    for family, rank in systems_up_to(max_rank):
        rep = open_orbit_rank_test(build_root_system(family, rank))
        out[rep.name] = rep.has_open_orbit
    return out
