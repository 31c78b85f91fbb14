"""Finite crystallographic root systems and the cascade of highest roots.

Every root lies in (1/2)Z^n, so the search runs on the int tuples 2r of
doubled coordinates, which keep the coordinate order; the public fields and
the cascade are converted to Fraction tuples once, at the end.  Positive
roots are generated from the simple roots by breadth-first search on height,
using the root-string criterion: beta + alpha is a root exactly when
q = p - <beta, alpha^vee> is positive, where p is the depth of the string
below beta; on doubled coordinates, p <alpha, alpha> > 2 <beta, alpha>.  The
cascade picks the highest root of each irreducible component, discards
everything not orthogonal to it, and recurses; its members are pairwise
strongly orthogonal.  The Borel subalgebra of the split form has an open
coadjoint orbit precisely when the cascade is as large as the rank.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, sub

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
    return tuple(tuple(half[x] for x in r) for r in roots)


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
    norms = [_dot(a, a) for a in simples]
    expected = _EXPECTED_POSITIVE_COUNTS[family](rank)
    height = {r: 1 for r in simples}
    frontier = list(simples)
    while frontier and len(height) <= expected:  # a wrong string test fails, not hangs
        nxt = []
        for beta in frontier:
            for alpha, norm in zip(simples, norms):
                p = 0
                probe = _sub(beta, alpha)
                while probe in height:
                    p += 1
                    probe = _sub(probe, alpha)
                if p * norm > 2 * _dot(beta, alpha):  # p - <beta, alpha^vee> > 0
                    cand = _add(beta, alpha)
                    if cand not in height:
                        height[cand] = height[beta] + 1
                        nxt.append(cand)
        frontier = nxt
    positives = sorted(height, key=lambda r: (height[r], r))
    if len(positives) != expected:
        raise AssertionError(
            f"{family}{rank}: generated {len(positives)} positive roots, "
            f"expected {expected}"
        )
    return RootSystem(
        f"{family}{rank}",
        family,
        rank,
        len(simples[0]),
        _halve(simples),
        _halve(positives),
        tuple(height[r] for r in positives),
        tuple(positives),
    )


def _components(roots):
    """Connected components under non-orthogonality, in order of least root
    (each seed is the least root left, so the seeds increase)."""
    remaining = set(roots)
    comps = []
    while remaining:
        seed = min(remaining)
        remaining.discard(seed)
        comp, stack = [seed], [seed]
        while stack:
            c = stack.pop()
            linked = [r for r in remaining if _dot(r, c) != 0]
            remaining.difference_update(linked)
            comp += linked
            stack += linked
        comps.append(comp)
    return comps


def kostant_cascade(rs: RootSystem) -> tuple:
    """Strongly orthogonal set built from recursive highest roots.

    Components are visited in order of their least root; within each the
    unique root of maximal height is taken and the recursion continues on the
    roots orthogonal to it.  The result is validated: pairwise orthogonal,
    and no sum or difference of two members is a root.
    """
    hmap = dict(zip(rs.doubled_roots, rs.heights))

    def recurse(roots):
        out = []
        for comp in _components(roots):
            top = max(hmap[r] for r in comp)
            maxima = [r for r in comp if hmap[r] == top]
            if len(maxima) != 1:
                raise AssertionError(f"component has {len(maxima)} height maxima; expected one")
            mu = maxima[0]
            out.append(mu)
            rest = [r for r in comp if r != mu and _dot(r, mu) == 0]
            out.extend(recurse(rest))
        return out

    cascade = recurse(list(rs.doubled_roots))
    for i, a in enumerate(cascade):
        for b in cascade[i + 1 :]:
            if _dot(a, b) != 0:
                raise AssertionError("cascade members are not orthogonal")
            for comb in (_add(a, b), _sub(a, b), _sub(b, a)):
                if comb in hmap or tuple(-x for x in comb) in hmap:
                    raise AssertionError("cascade members are not strongly orthogonal")
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
