"""Dense structure-tensor references for the bracket-table code.

A tensor here is a nested list t[i][j][k] of exact scalars with
[Y_i, Y_j] = sum_k t[i][j][k] Y_k.  The builders and readers below are the
dense triple loops `lie.py` ran when an algebra stored the whole cube.  Every
tensor is built from bracket inputs or by these builders, never read back from
an algebra, so a comparison against them checks two independent
constructions.
"""
import random
from fractions import Fraction as Q

from liegrpd.catalog import axb_tautological_module
from liegrpd.exact import Matrix, format_scalar, gaussian, matrix_inverse, rank_kernel
from liegrpd.exact import scalar_im, scalar_re
from liegrpd.lie import Subspace


def dense(dim, brackets):
    """Full antisymmetric tensor of sparse upper-triangular brackets {(i, j): {k: c}}."""
    t = [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), coeffs in brackets.items():
        for k, c in coeffs.items():
            c = Q(c) if isinstance(c, int) else c
            t[i][j][k] = c
            t[j][i][k] = -c
    return t


def upper(t):
    """The brackets {(j, k): {l: c}} of the tensor's upper triangle, nonzero c only."""
    n = len(t)
    return {(j, k): {l: c for l, c in enumerate(t[j][k]) if c != 0}
            for j in range(n) for k in range(j + 1, n)}


def ref_bracket(t, x, y):
    n = len(t)
    out = [Q(0)] * n
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            cij = t[i][j]
            for k in range(n):
                if cij[k] != 0:
                    out[k] = out[k] + xi * yj * cij[k]
    return tuple(out)


def ref_centralizer_mod(t, s):
    """{x : [Y_j, x] in s for every j}; kernel rows indexed by (j, k)."""
    m = len(t)
    rows = [row for j in range(m) for row in zip(*(s.reduce(tuple(t[j][i])) for i in range(m)))]
    _, kernel = rank_kernel(Matrix(rows))
    return Subspace.from_vectors(m, kernel)


def ref_adjoint_actions(t):
    """ad(Y_i) as matrices: column j is [Y_i, Y_j]."""
    n = len(t)
    return [Matrix([[t[i][j][k] for j in range(n)] for k in range(n)]) for i in range(n)]


def ref_coadjoint_actions(t):
    return [(-a).transpose() for a in ref_adjoint_actions(t)]


def ref_semidirect_sum(t, actions):
    """Tensor of the semidirect sum L + V, V abelian, Y_i acting by actions[i]."""
    m, n = len(t), actions[0].rows
    d = m + n
    out = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                out[i][j][k] = t[i][j][k]
    for i in range(m):
        for b in range(n):
            col = actions[i].column(b)
            for s in range(n):
                out[i][m + b][m + s] = col[s]
                out[m + b][i][m + s] = -col[s]
    return out


def ref_realify(t):
    """Tensor of a Qi-algebra over Q in the basis (Y_1..Y_m, iY_1..iY_m)."""
    m = len(t)
    d = 2 * m
    out = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                c = t[i][j][k]
                p, q = scalar_re(c), scalar_im(c)
                if p == 0 and q == 0:
                    continue
                out[i][j][k] += p
                out[i][j][m + k] += q
                out[i][m + j][k] += -q
                out[i][m + j][m + k] += p
                out[m + i][j][k] += -q
                out[m + i][j][m + k] += p
                out[m + i][m + j][k] += -p
                out[m + i][m + j][m + k] += -q
    return out


def ref_conjugate(t, seed, units=(1, -1)):
    """t in the basis Y'_i = sum_a P[a][i] Y_a, P a seeded product of
    elementary column operations with multipliers drawn from `units`."""
    rng = random.Random(seed)
    n = len(t)
    p = [[Q(int(r == c)) for c in range(n)] for r in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(units)
        for row in p:
            row[j] += c * row[i]
    q = matrix_inverse(Matrix(p))
    cols = [tuple(row[i] for row in p) for i in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            coords = q.apply(ref_bracket(t, cols[i], cols[j]))
            brackets[(i, j)] = {k: c for k, c in enumerate(coords) if c != 0}
    return dense(n, brackets)


def ref_direct_sum(*tensors):
    n = sum(len(t) for t in tensors)
    brackets, off = {}, 0
    for t in tensors:
        m = len(t)
        for i in range(m):
            for j in range(i + 1, m):
                brackets[(off + i, off + j)] = {off + k: c for k, c in enumerate(t[i][j]) if c}
        off += m
    return dense(n, brackets)


def ref_brackets(t):
    """(j, k, ((l, c), ...)) for j < k, listing the nonzero c in (j, k, l) order."""
    n = len(t)
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            terms = tuple((l, c) for l, c in enumerate(t[j][k]) if c != 0)
            if terms:
                out.append((j, k, terms))
    return tuple(out)


def ref_doc(t, basis, field):
    """The algebra document `algebra_to_json` writes for the tensor."""
    return {
        "dim": len(t),
        "field": field,
        "basis": list(basis),
        "brackets": [{"i": j, "j": k, "coeffs": {str(l): format_scalar(c) for l, c in terms}}
                     for j, k, terms in ref_brackets(t)],
    }


def random_tensor(seed):
    """A sparse random antisymmetric tensor, rational or (seed % 4 == 3)
    Gaussian; some are Lie algebras, most fail Jacobi somewhere."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    field = "Qi" if seed % 4 == 3 else "Q"
    t = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if rng.random() < 0.12:
                    c = gaussian(Q(rng.randint(-2, 2), rng.randint(1, 2)),
                                 rng.randint(-1, 1) if field == "Qi" else 0)
                    t[i][j][k], t[j][i][k] = c, -c
    return t, field


# seeds whose `random_tensor` draw satisfies Jacobi and has a bracket with a
# non-real constant
VALID_GAUSSIAN_DRAWS = (31, 51, 55, 87, 95, 107, 123, 147)
VALID_RATIONAL_DRAWS = (6, 32, 78, 82, 101, 105, 122, 188)

AXB = dense(2, {(0, 1): {1: 1}})
COMPLEX_BOREL = dense(2, {(0, 1): {1: 2}})
COMPLEX_HEISENBERG = dense(3, {(0, 1): {2: 1}})

# name -> (tensor, basis, field) of each catalog algebra
DENSE_CATALOG = {
    "heisenberg": (dense(3, {(0, 1): {2: 1}}), ("Y1", "Y2", "Y3"), "Q"),
    "axb": (AXB, ("Y1", "Y2"), "Q"),
    "e2": (dense(3, {(0, 1): {2: 1}, (0, 2): {1: -1}}), ("A", "X", "Y"), "Q"),
    "filiform4": (dense(4, {(0, 1): {2: 1}, (0, 2): {3: 1}}), ("Y1", "Y2", "Y3", "Y4"), "Q"),
    "complex_borel": (COMPLEX_BOREL, ("H", "E"), "Qi"),
    "realified_borel": (ref_realify(COMPLEX_BOREL), ("H", "E", "iH", "iE"), "Q"),
    "axb_semidirect_plane": (ref_semidirect_sum(AXB, axb_tautological_module().actions),
                             ("Y1", "Y2", "V1", "V2"), "Q"),
}
