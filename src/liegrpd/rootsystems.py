"""Finite crystallographic root systems and the cascade of highest roots.

A positive root sum c_i alpha_i has coefficients 0..6, so the search keys it
by the int sum c_i 16^i: beta - alpha_i is one subtraction and a string probe
one dict lookup.  Positive roots are generated from the simple roots by
breadth-first search on height, using the root-string criterion: beta +
alpha_j is a root exactly when p > <beta, alpha_j^vee>, where p is the depth
of the alpha_j-string below beta; the pairings of beta + alpha_j are those of
beta plus row j of the integer Cartan matrix.  Each new root's doubled
coordinates 2r (every root lies in (1/2)Z^n) are built once; the roots are
sorted by (height, 2r) and converted to Fraction tuples at the end.  The
cascade takes the highest root of each irreducible component, keeps the roots
orthogonal to it, which are those on the simple roots it pairs to zero with,
and recurses on Dynkin subdiagrams; its members are pairwise strongly
orthogonal.  The Borel subalgebra of the split form has an open coadjoint
orbit precisely when the cascade is as large as the rank.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, neg, sub

_EXPECTED_POSITIVE_COUNTS = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63, 8: 120}[l],
    "F": lambda l: 24,
    "G": lambda l: 6,
}

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _e(i: int, n: int) -> tuple:
    """The doubled unit vector 2 e_i."""
    return tuple(2 if j == i else 0 for j in range(n))


def _add(a, b):
    return tuple(map(add, a, b))


def _sub(a, b):
    return tuple(map(sub, a, b))


def _dot(a, b):
    return sum(map(mul, a, b))


def _simple_roots(family: str, rank: int):
    """Simple roots in doubled coordinates 2 alpha."""
    l = rank
    if family == "A":
        return [_sub(_e(i, l + 1), _e(i + 1, l + 1)) for i in range(l)]
    chain = [_sub(_e(i, l), _e(i + 1, l)) for i in range(l - 1)]  # e_i - e_{i+1}
    if family == "B":
        return chain + [_e(l - 1, l)]
    if family == "C":
        return chain + [_add(_e(l - 1, l), _e(l - 1, l))]
    if family == "D":
        return chain + [_add(_e(l - 2, l), _e(l - 1, l))]
    if family == "E":
        chain = [_sub(_e(i + 1, 8), _e(i, 8)) for i in range(6)]  # e_{i+1} - e_i
        return [(1, -1, -1, -1, -1, -1, -1, 1), _add(_e(0, 8), _e(1, 8))] + chain[:rank - 2]
    if family == "F":
        return [_sub(_e(1, 4), _e(2, 4)), _sub(_e(2, 4), _e(3, 4)), _e(3, 4), (1, -1, -1, -1)]
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
    simple_roots: tuple
    positive_roots: tuple  # sorted by (height, coordinates)
    heights: tuple  # parallel to positive_roots
    doubled_roots: tuple = field(repr=False, compare=False)  # 2r as int tuples
    keys: tuple = field(repr=False, compare=False)  # sum c_i 16^i, parallel
    cartan: tuple = field(repr=False, compare=False)  # cartan[i][j] = <alpha_i, alpha_j^vee>


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the named system and generate its positive roots exactly."""
    family = family.upper()
    if family not in _RANK_RANGE:
        raise ValueError(f"unknown family {family!r}")
    lo, hi = _RANK_RANGE[family]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"{family}{rank} is out of range (rank >= {lo}"
                         + (f", <= {hi})" if hi is not None else ")"))
    simples = _simple_roots(family, rank)
    norms = [_dot(b, b) for b in simples]
    cartan = tuple(tuple(2 * _dot(a, b) // n for b, n in zip(simples, norms)) for a in simples)
    units = [1 << _BITS * i for i in range(rank)]
    expected = _EXPECTED_POSITIVE_COUNTS[family](rank)
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
    if len(keys) != expected:
        raise AssertionError(
            f"{family}{rank}: generated {len(keys)} positive roots, "
            f"expected {expected}"
        )
    positives = [doubled[k] for k in keys]
    return RootSystem(
        f"{family}{rank}",
        family,
        rank,
        len(simples[0]),
        _halve(simples),
        _halve(positives),
        tuple(height[k] for k in keys),
        tuple(positives),
        tuple(keys),
        cartan,
    )


def _check_strongly_orthogonal(cascade, roots) -> None:
    """Raise unless the doubled roots in `cascade` are pairwise orthogonal and
    no sum or difference of two of them is in the set `roots` or its negative."""
    for i, a in enumerate(cascade):
        for b in cascade[i + 1 :]:
            if _dot(a, b) != 0:
                raise AssertionError("cascade members are not orthogonal")
            total, diff = _add(a, b), _sub(a, b)  # -(a - b) = b - a
            if not roots.isdisjoint((total, diff, _sub(b, a), tuple(map(neg, total)))):
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

    def recurse(mask, roots):
        comps = []  # the connected Dynkin subdiagrams on the simple roots in mask
        for b, adj in zip(bits, adjacent):
            if mask & b:  # join alpha_i to the subdiagrams it is linked to
                comps = [c for c in comps if not c & adj] + [b + sum(c for c in comps if c & adj)]
        comps = [[r for r in roots if not r[0] & ~c] for c in comps]  # the roots on each
        out = []
        for comp in sorted(comps, key=lambda comp: min(r[2] for r in comp)):
            maxima = [r for r in comp if r[1] == comp[-1][1]]  # comp is sorted by height
            if len(maxima) != 1:
                raise AssertionError(f"component has {len(maxima)} height maxima; expected one")
            key, _, theta = maxima[0]
            out.append(theta)
            coeffs = [key >> _BITS * k & 15 for k in range(rs.rank)]
            zero = sum(b for b, col in zip(bits, coroots)  # theta's support is its component
                       if key & b and not sum(map(mul, coeffs, col)))
            out.extend(recurse(zero, comp))
        return out

    cascade = recurse(sum(bits), list(zip(rs.keys, rs.heights, rs.doubled_roots)))
    _check_strongly_orthogonal(cascade, set(rs.doubled_roots))
    halved = dict(zip(rs.doubled_roots, rs.positive_roots))
    return tuple(halved[r] for r in cascade)


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
        len(rs.positive_roots),
        cascade,
        len(cascade),
        len(cascade) == rs.rank,
    )


def systems_up_to(max_rank: int):
    """(family, rank) for every system of rank <= max_rank, family by family."""
    for family, (lo, hi) in _RANK_RANGE.items():
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
