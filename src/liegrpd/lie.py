"""Lie algebras as exact sparse bracket tables, with modules.

An algebra stores its structure constants once, as the table of nonzero
brackets (j, k, ((l, c), ...)) for j < k, meaning [Y_j, Y_k] = sum c Y_l over
the chosen basis; [Y_k, Y_j] is the negative and unlisted brackets vanish.
`from_brackets` builds every algebra.  A dense tensor c[i][j][k] appears only
as the input of `validate_lie_algebra`, which checks its antisymmetry and
hands the upper triangle on.  A subspace keeps its echelon form as integer
or Gaussian-integer rows, and the series, centralizers and subalgebra checks
bracket those rows through `LieAlgebra.integer_brackets`.  Validation (field,
Jacobi) is exact; the Jacobi sums and every other exact reader of the
constants, from `bracket` and `ad_matrix` to the skew forms, read
`integer_tensor`: the table times D (`integer_scale`), found once.  Nothing
here touches floats.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import (
    GaussianRational,
    Matrix,
    Scalar,
    common_denominator,
    document_int,
    format_scalar,
    gaussian,
    is_exact,
    kernel_int,
    lowest_terms,
    matmul_int,
    parse_scalar,
    positive_multiplier,
    rref_int,
    scalar_im,
    scalar_re,
    zi_over,
    zi_rows,
)


class AntisymmetryError(ValueError):
    """The tensor is not antisymmetric; carries the offending (i, j, k)."""


class JacobiError(ValueError):
    """The Jacobi identity fails; carries the offending triple and residual."""


class FieldError(ValueError):
    """Operation applied over the wrong ground field."""


Vector = tuple


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


@dataclass(frozen=True)
class Subspace:
    """Subspace of an ambient exact coordinate space.

    The basis is the reduced row-echelon form R, stored as the int or
    `GaussInt` rows `ints` = s R over the least positive integer s,
    `denominator`, so two equal subspaces compare equal structurally.  `rows`
    rebuilds R as exact rows; membership is a reduction against `ints`.
    """

    ambient: int
    ints: tuple
    denominator: int = 1

    @staticmethod
    def from_vectors(ambient: int, vectors: Sequence[Vector]) -> "Subspace":
        """The span of exact, int or GaussInt vectors: each nonzero one is
        scaled to integers, which keeps the span, and eliminated by `rref_int`."""
        vectors = [zi_rows([v])[1][0] for v in vectors if not vec_is_zero(v)]
        if not vectors:
            return Subspace(ambient, ())
        red, d, _ = rref_int(vectors)
        f = positive_multiplier(d)
        ints, s = lowest_terms([[x * f for x in row] for row in red], d * f)
        return Subspace(ambient, tuple(map(tuple, ints)), s)

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, tuple(tuple(int(i == j) for j in range(ambient))
                                       for i in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.ints)

    @cached_property
    def rows(self) -> tuple:
        """R as `Fraction` and `GaussianRational` rows."""
        return tuple(tuple(zi_over(x, self.denominator) for x in row) for row in self.ints)

    @cached_property
    def pivots(self) -> tuple:
        """Pivot column of each row; a pivot entry is 1 and every other row is
        0 there.  The pivot set grows with the subspace."""
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.ints)

    def reduce(self, v: Vector) -> Vector:
        """s (v minus its component at each row's pivot), for an int or
        GaussInt vector v: zero exactly on the span.  The rows of R vanish at
        each other's pivots, so the component is sum_p v[p] R_p."""
        out = [self.denominator * a for a in v]
        for row, p in zip(self.ints, self.pivots):
            if v[p]:
                out = [a - v[p] * b for a, b in zip(out, row)]
        return tuple(out)

    def contains(self, v: Vector) -> bool:
        """Membership of an exact, int or GaussInt vector."""
        return vec_is_zero(self.reduce(zi_rows([v])[1][0]))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.ints)


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis: tuple
    brackets: tuple  # (j, k, ((l, c), ...)) for j < k, nonzero c only, in (j, k, l) order
    field: str  # "Q" or "Qi"

    @cached_property
    def pair_terms(self) -> dict:
        """(a, b) -> the nonzero terms of [Y_a, Y_b], for both orders."""
        out = {}
        for j, k, terms in self.brackets:
            out[j, k] = terms
            out[k, j] = tuple((l, -c) for l, c in terms)
        return out

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y] of exact, int or GaussInt vectors, as exact coordinates:
        with s clearing both vectors' denominators, the row of s x against
        `integer_brackets(s y)` is D s^2 [x, y]."""
        s, (p, q) = zi_rows([x, y])
        (row,) = matmul_int([p], self.integer_brackets(q))
        return tuple(zi_over(a, self.integer_scale * s * s) for a in row)

    @cached_property
    def _integer_table(self) -> tuple:
        """(D, the table times D), D the least positive integer clearing
        every denominator of the constants."""
        d, (consts,) = zi_rows([[c for _, _, terms in self.brackets for _, c in terms]])
        consts = iter(consts)
        return d, tuple((j, k, tuple((l, next(consts)) for l, _ in terms))
                        for j, k, terms in self.brackets)

    @cached_property
    def integer_scale(self) -> int:
        """D, the scale of `integer_tensor`."""
        return self._integer_table[0]

    @cached_property
    def integer_tensor(self) -> tuple:
        """The bracket table times D, with int or GaussInt coefficients: D B_xi
        is integral at an integral xi."""
        return self._integer_table[1]

    def integer_brackets(self, v: Vector) -> list:
        """D [Y_i, v] for each basis vector Y_i, as int or GaussInt lists, at
        an int or GaussInt vector v; D is the scale of `integer_tensor`.
        `matmul_int(rows, L.integer_brackets(v))` holds D [u, v] per row u."""
        out = [[0] * self.dim for _ in range(self.dim)]
        for j, k, terms in self.integer_tensor:
            vj, vk = v[j], v[k]
            if vk:
                for l, c in terms:
                    out[j][l] += c * vk
            if vj:
                for l, c in terms:
                    out[k][l] -= c * vj
        return out


def validate_lie_algebra(
    tensor: Sequence, basis: Sequence[str] | None = None, field: str = "Q"
) -> LieAlgebra:
    """Check a dense tensor c[i][j][k] for shape, exactness and antisymmetry,
    then build the algebra from its upper triangle with `from_brackets`."""
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
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if tensor[i][j][k] != -tensor[j][i][k]:
                    raise AntisymmetryError(
                        f"c[{i}][{j}][{k}] != -c[{j}][{i}][{k}]", (i, j, k)
                    )
    upper = {(i, j): dict(enumerate(tensor[i][j])) for i in range(n) for j in range(i + 1, n)}
    return from_brackets(n, upper, basis, field)


def from_brackets(
    dim: int,
    brackets: Mapping[tuple, Mapping[int, Scalar]],
    basis: Sequence[str] | None = None,
    field: str = "Q",
) -> LieAlgebra:
    """Build an algebra from sparse upper-triangular brackets {(i,j): {k: c}}.

    Indices are 0-based with i < j; the antisymmetric completion is implicit
    and unlisted brackets vanish.  Checks index ranges, the field name, that
    every constant is exact (and rational over Q), the basis names and the
    Jacobi identity, in that order.
    """
    if dim < 1:
        raise ValueError(f"dimension {dim} is not positive")
    for (i, j), coeffs in brackets.items():
        if not 0 <= i < j < dim:
            raise ValueError(f"bracket index ({i},{j}) out of range or not i<j")
        for k in coeffs:
            if not 0 <= k < dim:
                raise ValueError(f"coefficient index {k} of bracket ({i},{j}) out of range")
    if field not in ("Q", "Qi"):
        raise FieldError(f"unknown field {field!r}")
    entries = sorted(((i, j, k), c) for (i, j), coeffs in brackets.items() for k, c in coeffs.items())
    for (i, j, k), c in entries:
        if not is_exact(c):
            raise ValueError(f"entry c[{i}][{j}][{k}] is not exact")
        if field == "Q" and isinstance(c, GaussianRational):
            raise FieldError(f"entry c[{i}][{j}][{k}] = {format_scalar(c)} is not rational over Q")
    names = tuple(basis) if basis else tuple(f"Y{i+1}" for i in range(dim))
    if len(names) != dim:
        raise ValueError("basis name count mismatch")
    table = {}
    for (i, j, k), c in entries:
        if c != 0:
            table.setdefault((i, j), []).append((k, Fraction(c) if isinstance(c, int) else c))
    alg = LieAlgebra(dim, names, tuple((i, j, tuple(t)) for (i, j), t in table.items()), field)
    # the Jacobi sums on the integer table D C are D^2 times the residual
    pair, d = {}, alg.integer_scale
    for j, k, terms in alg.integer_tensor:
        pair[j, k], pair[k, j] = terms, tuple((l, -c) for l, c in terms)
    # a triple whose three pair brackets all vanish has nothing to check
    triples = {tuple(sorted((i, j, k))) for i, j, _ in alg.brackets for k in range(dim)
               if k != i and k != j}
    for i, j, k in sorted(triples):
        res = [0] * dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in pair.get((a, b), ()):
                for p, y in pair.get((l, c), ()):
                    res[p] += x * y
        if not vec_is_zero(res):
            raise JacobiError(
                f"Jacobi fails on basis triple ({i+1},{j+1},{k+1})",
                (i, j, k),
                tuple(zi_over(x, d * d) for x in res),
            )
    return alg


def ad_matrix(L: LieAlgebra, x: Vector) -> Matrix:
    """Matrix of ad(x): y -> [x, y] in the algebra basis.  With s clearing
    x's denominators, row j of `integer_brackets(s x)` is D [Y_j, s x] =
    -D s ad(x) Y_j, so ad(x) is minus their transpose over D s."""
    s, (p,) = zi_rows([x])
    return Matrix.scaled([[-a for a in col] for col in zip(*L.integer_brackets(p))],
                         L.integer_scale * s)


def subspace_bracket(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """[a, b], spanned by D [u, v] over the integer rows u of a and v of b;
    when a == b (the derived series) by the pairs u_i, u_j with i < j alone,
    as [u_j, u_i] = -[u_i, u_j] and [u, u] = 0."""
    return Subspace.from_vectors(L.dim, [
        w for j, v in enumerate(b.ints)
        for w in matmul_int(a.ints[:j] if a == b else a.ints, L.integer_brackets(v))])


@dataclass(frozen=True)
class SeriesReport:
    derived_series: tuple
    lower_central_series: tuple
    center: Subspace
    is_solvable: bool
    is_nilpotent: bool


def centralizer_mod(L: LieAlgebra, s: Subspace) -> Subspace:
    """{x : [Y_j, x] in s for every j}: the kernel of the rows indexed by
    (j, k) whose entry i is coordinate k of s.reduce(D [Y_j, Y_i]).

    For an ideal s this is the preimage of the center of L/s.
    """
    m = L.dim
    images = [[s.reduce(w) for w in L.integer_brackets(e)] for e in Subspace.full(m).ints]
    rows = [row for j in range(m) for row in zip(*(images[i][j] for i in range(m)))]
    return Subspace.from_vectors(m, kernel_int(rows, m)[0])


def center_of(L: LieAlgebra) -> Subspace:
    return centralizer_mod(L, Subspace.zero(L.dim))


def checked_subalgebra(L: LieAlgebra, vectors: Sequence[Vector], what: str) -> Subspace:
    """Span of the vectors, verified closed under the bracket."""
    s = Subspace.from_vectors(L.dim, vectors)
    if not s.contains_subspace(subspace_bracket(L, s, s)):
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


def derived_series(L: LieAlgebra) -> tuple:
    """L, [L, L], ... until a term repeats or is zero; L is solvable exactly
    when the last term is zero."""
    return _series(lambda s: subspace_bracket(L, s, s), Subspace.full(L.dim))


def structure_series(L: LieAlgebra) -> SeriesReport:
    """Derived and lower-central series, center, solvability/nilpotency flags."""
    full = Subspace.full(L.dim)
    derived = derived_series(L)
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


class RepresentationError(ValueError):
    """a([x,y]) != [a(x), a(y)] for some basis pair."""


def make_module(L: LieAlgebra, actions: Sequence[Matrix]) -> LieModule:
    """Validate the representation law exactly and build the module.

    On integer rows: with a(Y_k) = N_k / S over the actions' common
    denominator S and the bracket constants C / D over theirs, D, the law on
    (Y_i, Y_j) reads S sum_l C_ijl N_l = D (N_i N_j - N_j N_i).
    """
    actions = tuple(actions)
    if len(actions) != L.dim:
        raise ValueError("one action matrix per basis element required")
    n = actions[0].rows
    for a in actions:
        if a.rows != n or a.cols != n:
            raise ValueError("action matrices must be square of equal size")
    s, ints = common_denominator(actions)
    d = L.integer_scale
    table = {(j, k): terms for j, k, terms in L.integer_tensor}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            terms = table.get((i, j), ())
            lhs = [[s * sum(c * ints[l][r][t] for l, c in terms) for t in range(n)]
                   for r in range(n)]
            ab, ba = matmul_int(ints[i], ints[j]), matmul_int(ints[j], ints[i])
            if lhs != [[d * (x - y) for x, y in zip(u, w)] for u, w in zip(ab, ba)]:
                raise RepresentationError(f"representation law fails on basis pair ({i+1},{j+1})")
    return LieModule(L, n, actions)


def adjoint_module(L: LieAlgebra) -> LieModule:
    """ad(Y_i) per basis vector, unchecked: its representation law is the
    Jacobi identity, which `from_brackets` verified."""
    return LieModule(L, L.dim, tuple(ad_matrix(L, e) for e in Subspace.full(L.dim).ints))


def dual_module(M: LieModule) -> LieModule:
    """Contragredient module: x acts by minus the transpose, unchecked:
    [-a(x)^T, -a(y)^T] = -[a(x), a(y)]^T = -a([x, y])^T follows from M's law."""
    return LieModule(M.algebra, M.dim, tuple((-a).transpose() for a in M.actions))


def coadjoint_module(L: LieAlgebra) -> LieModule:
    return dual_module(adjoint_module(L))


def semidirect_sum(L: LieAlgebra, M: LieModule) -> LieAlgebra:
    """Semidirect sum L + V with V abelian and L acting through the module:

        [(X1, v1), (X2, v2)] = ([X1, X2], a(X1) v2 - a(X2) v1).
    """
    if M.algebra != L:
        raise ValueError("module is not over the given algebra")
    m, n = L.dim, M.dim
    brackets = {(j, k): dict(terms) for j, k, terms in L.brackets}
    for i in range(m):
        for b in range(n):
            brackets[i, m + b] = {m + t: c for t, c in enumerate(M.actions[i].column(b))}
    names = tuple(L.basis) + tuple(f"V{t+1}" for t in range(n))
    return from_brackets(m + n, brackets, names, L.field)


def realify(L: LieAlgebra) -> LieAlgebra:
    """View a Qi-algebra of dimension m as a Q-algebra of dimension 2m.

    The real basis is (Y_1..Y_m, iY_1..iY_m) with the convention i^2 = -1.
    """
    if L.field != "Qi":
        raise FieldError("realify expects a Qi algebra")
    m = L.dim

    def real_coords(terms, w):
        """Real coordinates of w [Y_a, Y_b], given the terms of [Y_a, Y_b]."""
        out = {}
        for l, c in terms:
            out[l], out[m + l] = scalar_re(w * c), scalar_im(w * c)
        return out

    brackets = {}
    for (a, b), terms in L.pair_terms.items():
        brackets[a, m + b] = real_coords(terms, gaussian(0, 1))  # [Y_a, iY_b] = i [Y_a, Y_b]
        if a < b:
            brackets[a, b] = real_coords(terms, 1)
            brackets[m + a, m + b] = real_coords(terms, -1)  # [iY_a, iY_b] = -[Y_a, Y_b]
    names = tuple(L.basis) + tuple("i" + b for b in L.basis)
    return from_brackets(2 * m, brackets, names, "Q")


# ---------------------------------------------------------------------------
# JSON schema


def algebra_to_json(L: LieAlgebra) -> dict:
    return {
        "dim": L.dim,
        "field": L.field,
        "basis": list(L.basis),
        "brackets": [
            {"i": j, "j": k, "coeffs": {str(l): format_scalar(c) for l, c in terms}}
            for j, k, terms in L.brackets
        ],
    }


MAX_JSON_DIM = 128


def algebra_from_json(doc: dict) -> LieAlgebra:
    dim = document_int(doc["dim"], "dim")
    if dim > MAX_JSON_DIM:
        raise ValueError(f"dimension {dim} exceeds the limit {MAX_JSON_DIM}")
    field = doc.get("field", "Q")
    basis = doc.get("basis")
    sparse = {}
    for entry in doc.get("brackets", []):
        i, j = document_int(entry["i"], "bracket i"), document_int(entry["j"], "bracket j")
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
