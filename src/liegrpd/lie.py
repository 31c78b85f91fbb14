"""Lie algebras as exact structure-constant tensors, with modules.

A bracket tensor c[i][j][k] means [Y_i, Y_j] = sum_k c[i][j][k] Y_k over the
chosen basis.  Validation (antisymmetry, Jacobi) is exact; nothing here
touches floats.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import (
    Matrix,
    Scalar,
    format_scalar,
    gaussian,
    is_exact,
    parse_scalar,
    rank_kernel,
    rref,
    scalar_im,
    scalar_re,
)


class AntisymmetryError(ValueError):
    """The tensor is not antisymmetric; carries the offending (i, j, k)."""


class JacobiError(ValueError):
    """The Jacobi identity fails; carries the offending triple and residual."""


class FieldError(ValueError):
    """Operation applied over the wrong ground field."""


Vector = tuple


def vec_scale(c, v: Vector) -> Vector:
    return tuple(c * a for a in v)

def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


@dataclass(frozen=True)
class Subspace:
    """Subspace of an ambient exact coordinate space.

    The basis is stored as the reduced row-echelon rows, so two equal
    subspaces compare equal structurally, and membership is a reduction
    against those rows.
    """

    ambient: int
    rows: tuple

    @staticmethod
    def from_vectors(ambient: int, vectors: Sequence[Vector]) -> "Subspace":
        vectors = [v for v in vectors if not vec_is_zero(v)]
        if not vectors:
            return Subspace(ambient, ())
        red, _ = rref(vectors)
        return Subspace(ambient, tuple(red))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        rows = tuple(tuple(Fraction(int(i == j)) for j in range(ambient)) for i in range(ambient))
        return Subspace(ambient, rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple:
        """Pivot column of each row; a pivot entry is 1 and every other row is
        0 there.  The pivot set grows with the subspace."""
        return tuple(next(i for i, x in enumerate(row) if x != 0) for row in self.rows)

    def reduce(self, v: Vector) -> Vector:
        """v minus its component at each row's pivot: zero exactly on the span."""
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != 0:
                v = tuple(a - c * b for a, b in zip(v, row))
        return tuple(v)

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.rows)


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis: tuple
    tensor: tuple  # c[i][j][k]
    field: str  # "Q" or "Qi"

    def bracket(self, x: Vector, y: Vector) -> Vector:
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                cij = self.tensor[i][j]
                for k in range(self.dim):
                    if cij[k] != 0:
                        out[k] = out[k] + xi * yj * cij[k]
        return tuple(out)

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if j == i else 0) for j in range(self.dim))

    @cached_property
    def sparse_tensor(self) -> tuple:
        """(j, k, ((l, c), ...)) for each j < k with [Y_j, Y_k] = sum c Y_l
        nonzero, listing only the c != 0."""
        out = []
        for j in range(self.dim):
            for k in range(j + 1, self.dim):
                terms = tuple((l, c) for l, c in enumerate(self.tensor[j][k]) if c != 0)
                if terms:
                    out.append((j, k, terms))
        return tuple(out)

    @cached_property
    def integer_tensor(self) -> tuple:
        """The sparse tensor times the lcm of its denominators, with int
        coefficients: D B_xi is integral at integer xi.  Rational field only."""
        consts = [c for _, _, terms in self.sparse_tensor for _, c in terms]
        if self.field != "Q" or not all(isinstance(c, Fraction) for c in consts):
            raise FieldError("integer structure constants need rational coefficients over Q")
        d = math.lcm(*(c.denominator for c in consts))
        return tuple(
            (j, k, tuple((l, int(c * d)) for l, c in terms))
            for j, k, terms in self.sparse_tensor
        )


def validate_lie_algebra(
    tensor: Sequence, basis: Sequence[str] | None = None, field: str = "Q"
) -> LieAlgebra:
    """Check shape, exactness, antisymmetry and Jacobi; return the algebra."""
    n = len(tensor)
    if field not in ("Q", "Qi"):
        raise FieldError(f"unknown field {field!r}")
    for i, plane in enumerate(tensor):
        if len(plane) != n or any(len(row) != n for row in plane):
            raise ValueError("tensor is not cubic")
        for j, row in enumerate(plane):
            for k, c in enumerate(row):
                if not is_exact(c):
                    raise ValueError(f"entry c[{i}][{j}][{k}] is not exact")
    t = tuple(
        tuple(tuple(Fraction(c) if isinstance(c, int) else c for c in row) for row in plane)
        for plane in tensor
    )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[i][j][k] != -t[j][i][k]:
                    raise AntisymmetryError(
                        f"c[{i}][{j}][{k}] != -c[{j}][{i}][{k}]", (i, j, k)
                    )
    names = tuple(basis) if basis else tuple(f"Y{i+1}" for i in range(n))
    if len(names) != n:
        raise ValueError("basis name count mismatch")
    alg = LieAlgebra(n, names, t, field)
    pair = {}  # (a, b) -> nonzero terms of [Y_a, Y_b], both orders
    for j, k, terms in alg.sparse_tensor:
        pair[j, k] = terms
        pair[k, j] = tuple((l, -c) for l, c in terms)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                cyclic = ((i, j, k), (j, k, i), (k, i, j))
                if not any((a, b) in pair for a, b, _ in cyclic):
                    continue  # all three pair brackets vanish
                res = [Fraction(0)] * n
                for a, b, c in cyclic:
                    for l, x in pair.get((a, b), ()):
                        for p, y in pair.get((l, c), ()):
                            res[p] = res[p] + x * y
                if not vec_is_zero(res):
                    raise JacobiError(
                        f"Jacobi fails on basis triple ({i+1},{j+1},{k+1})",
                        (i, j, k),
                        tuple(res),
                    )
    return alg


def from_brackets(
    dim: int,
    brackets: Mapping[tuple, Mapping[int, Scalar]],
    basis: Sequence[str] | None = None,
    field: str = "Q",
) -> LieAlgebra:
    """Build an algebra from sparse upper-triangular brackets {(i,j): {k: c}}.

    Indices are 0-based with i < j; the antisymmetric completion is automatic
    and unlisted brackets vanish.
    """
    if dim < 1:
        raise ValueError(f"dimension {dim} is not positive")
    tensor = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), coeffs in brackets.items():
        if not 0 <= i < j < dim:
            raise ValueError(f"bracket index ({i},{j}) out of range or not i<j")
        for k, c in coeffs.items():
            if not 0 <= k < dim:
                raise ValueError(f"coefficient index {k} of bracket ({i},{j}) out of range")
            c = Fraction(c) if isinstance(c, int) else c
            tensor[i][j][k] = c
            tensor[j][i][k] = -c
    return validate_lie_algebra(tensor, basis, field)


def ad_matrix(L: LieAlgebra, x: Vector) -> Matrix:
    """Matrix of ad(x): y -> [x, y] in the algebra basis."""
    cols = [L.bracket(x, L.basis_vector(j)) for j in range(L.dim)]
    return Matrix([[cols[j][k] for j in range(L.dim)] for k in range(L.dim)])


def subspace_bracket(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    vecs = [L.bracket(u, v) for u in a.rows for v in b.rows]
    return Subspace.from_vectors(L.dim, vecs)


@dataclass(frozen=True)
class SeriesReport:
    derived_series: tuple
    lower_central_series: tuple
    center: Subspace
    is_solvable: bool
    is_nilpotent: bool


def centralizer_mod(L: LieAlgebra, s: Subspace) -> Subspace:
    """{x : [Y_j, x] in s for every j}; kernel rows indexed by (j, k).

    For an ideal s this is the preimage of the center of L/s.
    """
    m = L.dim
    rows = [row for j in range(m) for row in zip(*(s.reduce(L.tensor[j][i]) for i in range(m)))]
    _, kernel = rank_kernel(Matrix(rows))
    return Subspace.from_vectors(m, kernel)


def center_of(L: LieAlgebra) -> Subspace:
    return centralizer_mod(L, Subspace.zero(L.dim))


def checked_subalgebra(L: LieAlgebra, vectors: Sequence[Vector], what: str) -> Subspace:
    """Span of the vectors, verified closed under the bracket."""
    s = Subspace.from_vectors(L.dim, vectors)
    for u in s.rows:
        for v in s.rows:
            if not s.contains(L.bracket(u, v)):
                raise AssertionError(f"{what} failed its subalgebra check")
    return s


def _series(step, start: Subspace) -> tuple:
    """start, step(start), ... until a term repeats or is zero."""
    chain = [start]
    while chain[-1].dim:
        nxt = step(chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return tuple(chain)


def structure_series(L: LieAlgebra) -> SeriesReport:
    """Derived and lower-central series, center, solvability/nilpotency flags."""
    full = Subspace.full(L.dim)
    derived = _series(lambda s: subspace_bracket(L, s, s), full)
    lower = _series(lambda s: subspace_bracket(L, full, s), full)
    return SeriesReport(
        derived, lower, center_of(L), derived[-1].dim == 0, lower[-1].dim == 0
    )


@dataclass(frozen=True)
class LieModule:
    """Finite-dimensional module: one action matrix per algebra basis vector."""

    algebra: LieAlgebra
    dim: int
    actions: tuple  # Matrix per basis element

    def action_of(self, x: Vector) -> Matrix:
        out = Matrix.zeros(self.dim, self.dim)
        for i, xi in enumerate(x):
            if xi != 0:
                out = out + self.actions[i].scale(xi)
        return out


class RepresentationError(ValueError):
    """a([x,y]) != [a(x), a(y)] for some basis pair."""


def make_module(L: LieAlgebra, actions: Sequence[Matrix]) -> LieModule:
    """Validate the representation law exactly and build the module."""
    actions = tuple(actions)
    if len(actions) != L.dim:
        raise ValueError("one action matrix per basis element required")
    n = actions[0].rows
    for a in actions:
        if a.rows != n or a.cols != n:
            raise ValueError("action matrices must be square of equal size")
    mod = LieModule(L, n, actions)
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = mod.action_of(L.bracket(L.basis_vector(i), L.basis_vector(j)))
            rhs = actions[i] @ actions[j] - actions[j] @ actions[i]
            if lhs != rhs:
                raise RepresentationError(
                    f"representation law fails on basis pair ({i+1},{j+1})"
                )
    return mod


def adjoint_module(L: LieAlgebra) -> LieModule:
    return make_module(L, [ad_matrix(L, L.basis_vector(i)) for i in range(L.dim)])


def dual_module(M: LieModule) -> LieModule:
    """Contragredient module: x acts by minus the transpose."""
    return make_module(M.algebra, [(-a).transpose() for a in M.actions])


def coadjoint_module(L: LieAlgebra) -> LieModule:
    return dual_module(adjoint_module(L))


def semidirect_sum(L: LieAlgebra, M: LieModule) -> LieAlgebra:
    """Semidirect sum L + V with V abelian and L acting through the module:

        [(X1, v1), (X2, v2)] = ([X1, X2], a(X1) v2 - a(X2) v1).
    """
    if M.algebra != L:
        raise ValueError("module is not over the given algebra")
    m, n = L.dim, M.dim
    d = m + n
    tensor = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                tensor[i][j][k] = L.tensor[i][j][k]
    for i in range(m):
        ai = M.actions[i]
        for b in range(n):
            col = ai.column(b)
            for t in range(n):
                tensor[i][m + b][m + t] = col[t]
                tensor[m + b][i][m + t] = -col[t]
    names = tuple(L.basis) + tuple(f"V{t+1}" for t in range(n))
    return validate_lie_algebra(tensor, names, L.field)


def realify(L: LieAlgebra) -> LieAlgebra:
    """View a Qi-algebra of dimension m as a Q-algebra of dimension 2m.

    The real basis is (Y_1..Y_m, iY_1..iY_m) with the convention i^2 = -1.
    """
    if L.field != "Qi":
        raise FieldError("realify expects a Qi algebra")
    m = L.dim
    d = 2 * m
    tensor = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                c = L.tensor[i][j][k]
                p, q = scalar_re(c), scalar_im(c)
                if p == 0 and q == 0:
                    continue
                # [Y_i, Y_j] = p Y_k + q (iY_k)
                tensor[i][j][k] += p
                tensor[i][j][m + k] += q
                # [Y_i, iY_j] = i [Y_i, Y_j] = -q Y_k + p (iY_k)
                tensor[i][m + j][k] += -q
                tensor[i][m + j][m + k] += p
                tensor[m + i][j][k] += -q
                tensor[m + i][j][m + k] += p
                # [iY_i, iY_j] = -[Y_i, Y_j]
                tensor[m + i][m + j][k] += -p
                tensor[m + i][m + j][m + k] += -q
    names = tuple(L.basis) + tuple("i" + b for b in L.basis)
    return validate_lie_algebra(tensor, names, "Q")


def realify_vector(v: Vector) -> Vector:
    """Real coordinates (Re z_1..Re z_m, Im z_1..Im z_m) of a complex vector."""
    return tuple(scalar_re(z) for z in v) + tuple(scalar_im(z) for z in v)


def realify_subspace(s: Subspace) -> Subspace:
    """Real span of {v, iv} for v in a complex subspace, in doubled coordinates."""
    i = gaussian(0, 1)
    vecs = []
    for v in s.rows:
        vecs.append(realify_vector(v))
        vecs.append(realify_vector(vec_scale(i, v)))
    return Subspace.from_vectors(2 * s.ambient, vecs)


# ---------------------------------------------------------------------------
# JSON schema


def algebra_to_json(L: LieAlgebra) -> dict:
    brackets = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            coeffs = {
                str(k): format_scalar(L.tensor[i][j][k])
                for k in range(L.dim)
                if L.tensor[i][j][k] != 0
            }
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    return {
        "dim": L.dim,
        "field": L.field,
        "basis": list(L.basis),
        "brackets": brackets,
    }


MAX_JSON_DIM = 128


def algebra_from_json(doc: dict) -> LieAlgebra:
    dim = int(doc["dim"])
    if dim > MAX_JSON_DIM:
        raise ValueError(f"dimension {dim} exceeds the limit {MAX_JSON_DIM}")
    field = doc.get("field", "Q")
    basis = doc.get("basis")
    sparse = {}
    for entry in doc.get("brackets", []):
        i, j = int(entry["i"]), int(entry["j"])
        if (i, j) in sparse:
            raise ValueError(f"bracket ({i},{j}) listed twice")
        raw = entry["coeffs"]
        if not isinstance(raw, dict):
            raise TypeError(f"coeffs of bracket ({i},{j}) is not an object")
        coeffs = {int(k): parse_scalar(v) for k, v in raw.items()}
        if len(coeffs) != len(raw):
            raise ValueError(f"a coefficient index of bracket ({i},{j}) is listed twice")
        sparse[(i, j)] = coeffs
    return from_brackets(dim, sparse, basis, field)


def load_algebra(path: str) -> LieAlgebra:
    with open(path) as fh:
        return algebra_from_json(json.load(fh))
