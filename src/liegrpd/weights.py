"""Module weights of solvable Lie algebras and the exponential-type test.

Weights are read off a flag of the module, one step at a time, by Lie's
theorem.  Write D = [L, L].  D acts nilpotently, so the joint kernel V0 of the
D-actions is nonzero; V0 is invariant because D is an ideal; and on V0 the
complement directions (the basis vectors off the pivot columns of D's echelon
basis) commute, since their brackets lie in D.  A step takes V0 with one
kernel, restricts each complement action in turn to the current subspace and
shrinks the subspace to the eigenspace of the least Gaussian-rational root of
the restricted characteristic polynomial.  The later actions commute with the
earlier ones on it, so they keep it invariant and the search never
backtracks.  A vector of the last subspace is a joint eigenvector.  The weight
on a pivot column follows from vanishing on D; every action then passes to
the quotient by that vector with a rank-one update, and the next step repeats.

The search runs on integers.  Each action enters as the integer or
Gaussian-integer rows N and positive integer denominator s that its `Matrix`
stores, the action being N / s, and every step keeps such a pair, reduced to
lowest terms by `lowest_terms`; kernels and eigenspaces come from
`kernel_int`, which gives the isotropy algebras too, the restricted
characteristic polynomials from `charpoly_int` and their least roots from
`least_gaussian_root`; every scale stays a positive integer, so that root
over the scale is the least eigenvalue.  The adjoint module's actions are ad(Y_i), read from the
algebra's integer bracket table by `ad_matrix`.

The search is exact over the Gaussian rationals.  When a restricted
characteristic polynomial does not split over the Gaussian integers, a float
path takes over and the results carry exact=False.  Every root of such a
polynomial is the value of a weight of the module, and every step yields
one weight of its multiset, so this happens exactly when some weight is not
Gaussian-rational on the complement, as it did for the earlier depth-first
search over the full action matrices.  The root search has no budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    NumericError,
    charpoly_int,
    common_denominator,
    kernel_int,
    least_gaussian_root,
    lowest_terms,
    positive_multiplier,
    scalar_im,
    scalar_re,
    zi_over,
)
from .lie import LieAlgebra, LieModule, adjoint_module, derived_series, realify

_FLOAT_TOL = 1e-9


class SolvabilityError(ValueError):
    """Weight extraction requires a solvable algebra."""


class InexactSpectrum(ArithmeticError):
    """Internal: the exact eigenvalue search failed; float fallback engaged."""


@dataclass(frozen=True)
class RootFunctional:
    """A weight, split into real and imaginary functionals on the algebra.

    Exact functionals have Fraction coordinates and vanish on the derived
    subalgebra by construction; float ones (exact=False) are heuristic.
    """

    re: tuple
    im: tuple
    exact: bool
    multiplicity: int = 1

    def is_zero(self) -> bool:
        if self.exact:
            return all(a == 0 for a in self.re) and all(a == 0 for a in self.im)
        return all(abs(a) < _FLOAT_TOL for a in self.re) and all(
            abs(a) < _FLOAT_TOL for a in self.im
        )

    def evaluate(self, x):
        re = sum(a * b for a, b in zip(self.re, x))
        im = sum(a * b for a, b in zip(self.im, x))
        return re, im


def _eigenline(d_acts, c_acts):
    """A vector on which every action is scalar, and the scalars of c_acts.

    Actions are pairs (N, s) of an integer matrix and a scale, the action
    being N / s.  The joint kernel of d_acts is invariant and c_acts commute
    on it; each c_act in turn shrinks it to the eigenspace of its least root.
    The space is kept as integer vectors W_k that are e at coordinate c_k and
    0 at the other coordinates, so the action restricted to it is R / (s e)
    with R[j][k] = (N W_k)[c_j]: its eigenvalues are mu / (s e) for the
    Gaussian-integer eigenvalues mu of R.
    """
    n = len(c_acts[0][0])
    vecs, coords, e = kernel_int([row for a, _ in d_acts for row in a], n)
    lams = []
    for a, s in c_acts:
        images = [[sum(x * y for x, y in zip(row, v) if x) for row in a] for v in vecs]
        r = [[img[c] for img in images] for c in coords]
        mu = least_gaussian_root(charpoly_int(r))
        if mu is None:
            raise InexactSpectrum("no eigenvalue over the Gaussian rationals")
        lams.append(zi_over(mu, s * e))
        ker, free, e2 = kernel_int([[x - mu if i == j else x for j, x in enumerate(row)]
                                 for i, row in enumerate(r)], len(r))
        vecs = [[sum(c * v[t] for c, v in zip(k, vecs) if c) for t in range(n)] for k in ker]
        coords, e = [coords[j] for j in free], e * e2
        vecs, e = lowest_terms(vecs, e)
    return lams, vecs[0]


def _quotient(act, v, p):
    """The action N / s on V/<v> in the basis e_j, j != p (v[p] != 0): the
    rank-one update v_p N[i][j] - v[i] N[p][j] with scale v_p s, which is
    P^-1 A P for P = (v, e_j for j != p) without its first row and column.
    Both are multiplied by the conjugate of v_p, or its sign, so that the
    scale stays a positive integer."""
    a, s = act
    vp, top = v[p], a[p]
    f = positive_multiplier(vp)
    return lowest_terms([[(vp * x - vi * y) * f for j, (x, y) in enumerate(zip(row, top)) if j != p]
                    for i, (row, vi) in enumerate(zip(a, v)) if i != p], vp * f * s)


def _weights_exact(M, derived):
    """The weight of each step of a flag of M, as its values on the basis.

    Values on the complement of [L, L] (the non-pivot columns of `derived`)
    are eigenvalues; on each pivot column p the weight is fixed by vanishing
    on the derived row w_p: lambda(e_p) = -sum_j w_pj lambda(e_j).  Each
    action enters as its integer rows and scale; the [L, L]-actions are
    combined over the common scale S of all actions, A_i = N_i / S.
    """
    free = [j for j in range(M.algebra.dim) if j not in derived.pivots]
    S, ints = common_denominator(M.actions)
    d_acts = []
    for w in derived.ints:
        d_acts.append(lowest_terms([[sum(c * a[i][j] for c, a in zip(w, ints) if c)
                                     for j in range(M.dim)] for i in range(M.dim)], S))
    c_acts = [(M.actions[j].ints, M.actions[j].denominator) for j in free]
    out = []
    while True:
        lams, v = _eigenline(d_acts, c_acts)
        lam = [Fraction(0)] * M.algebra.dim
        for j, x in zip(free, lams):
            lam[j] = x
        for w, p in zip(derived.rows, derived.pivots):
            lam[p] = -sum((w[j] * lam[j] for j in free), Fraction(0))
        out.append(tuple(lam))
        if len(v) == 1:
            return out
        p = next(i for i, x in enumerate(v) if x)
        d_acts = [_quotient(a, v, p) for a in d_acts]
        c_acts = [_quotient(a, v, p) for a in c_acts]


# ---------------------------------------------------------------------------
# float fallback


def _nullspace_float(a):
    import numpy as np
    u, s, vh = np.linalg.svd(a)
    scale = max(s[0], 1.0) if len(s) else 1.0
    null_mask = np.concatenate([s, np.zeros(a.shape[1] - len(s))]) <= _FLOAT_TOL * scale
    return vh[null_mask.nonzero()[0], :].conj().T  # columns orthonormal


def _intersect_float(q1, q2):
    import numpy as np
    stacked = np.hstack([q1, -q2])
    ker = _nullspace_float(stacked)
    if ker.shape[1] == 0:
        return np.zeros((q1.shape[0], 0))
    vecs = q1 @ ker[: q1.shape[1], :]
    q, r = np.linalg.qr(vecs)
    keep = np.abs(np.diag(r)) > _FLOAT_TOL * max(1.0, np.abs(r).max())
    return q[:, : int(keep.sum())]


def _common_eigenvector_float(mats):
    import numpy as np
    n = mats[0].shape[0]

    def eig_candidates(a):
        vals = np.linalg.eigvals(a)
        out = []
        for v in sorted(vals, key=lambda z: (round(z.real, 9), round(z.imag, 9))):
            if not any(abs(v - w) < 1e-6 for w in out):
                out.append(v)
        return out

    def descend(idx, basis):
        if idx == len(mats):
            return (), basis[:, 0]
        a = mats[idx]
        for lam in eig_candidates(a):
            ker = _nullspace_float(a - lam * np.eye(n))
            if ker.shape[1] == 0:
                continue
            nxt = ker if basis is None else _intersect_float(basis, ker)
            if nxt.shape[1] == 0:
                continue
            deeper = descend(idx + 1, nxt)
            if deeper is not None:
                tail, vec = deeper
                lam_exact = (vec.conj() @ (a @ vec)) / (vec.conj() @ vec)
                return (lam_exact,) + tail, vec
        return None

    return descend(0, None)


def _weights_float(mats):
    import numpy as np
    n = mats[0].shape[0]
    if n == 0:
        return []
    found = _common_eigenvector_float(mats)
    if found is None:
        raise NumericError("float weight search failed to find a joint eigenvector")
    lam, vec = found
    if n == 1:
        return [lam]
    vec = vec / np.linalg.norm(vec)
    span = np.hstack([vec.reshape(-1, 1), np.eye(n, dtype=complex)])
    q, _ = np.linalg.qr(span)
    q = q[:, :n]
    quots = [(q.conj().T @ a @ q)[1:, 1:] for a in mats]
    return [lam] + _weights_float(quots)


# ---------------------------------------------------------------------------
# public API


def module_weights(L: LieAlgebra, M: LieModule):
    """All weights of a module over a solvable algebra, with multiplicity.

    Returns RootFunctionals sorted deterministically; multiplicities sum to
    the module dimension.  The flag search on the joint kernel of the
    [L, L]-actions (see the module docstring) needs no backtracking.  Exact
    when every weight is Gaussian-rational on the complement of [L, L],
    float-tagged otherwise: the same decision as a search over the full
    action matrices, because both yield the whole weight multiset.
    """
    derived = derived_series(L)
    if derived[-1].dim:
        raise SolvabilityError("weights require a solvable algebra")
    if M.dim == 0:
        return []
    try:
        tuples = _weights_exact(M, derived[1])
        exact = True
    except InexactSpectrum:
        tuples = _weights_float([a.to_numpy().astype(complex) for a in M.actions])
        exact = False
    weights = []
    for lam in tuples:
        if exact:
            re = tuple(scalar_re(x) for x in lam)
            im = tuple(scalar_im(x) for x in lam)
        else:
            re = tuple(float(x.real) for x in lam)
            im = tuple(float(x.imag) for x in lam)
        weights.append((re, im, exact))
    # aggregate multiplicities
    out = []
    for re, im, exact_flag in weights:
        merged = False
        for idx, existing in enumerate(out):
            ere, eim, ecount = existing
            if exact_flag:
                same = ere == re and eim == im
            else:
                same = all(abs(a - b) < 1e-6 for a, b in zip(ere, re)) and all(
                    abs(a - b) < 1e-6 for a, b in zip(eim, im)
                )
            if same:
                out[idx] = (ere, eim, ecount + 1)
                merged = True
                break
        if not merged:
            out.append((re, im, 1))
    fns = [
        RootFunctional(re, im, exact, mult)
        for re, im, mult in out
    ]
    if exact:
        fns.sort(key=lambda f: tuple(zip(f.re, f.im)))
    else:
        fns.sort(key=lambda f: tuple((round(a, 9), round(b, 9)) for a, b in zip(f.re, f.im)))
    return fns


def algebra_roots(L: LieAlgebra):
    """Weights of the adjoint module (the roots of the algebra)."""
    return module_weights(L, adjoint_module(L))


@dataclass(frozen=True)
class WeightCertificate:
    weight: RootFunctional
    theta: object  # Fraction (exact) or float, None on violation
    gamma: tuple | None  # the real functional with weight = (1 + i theta) gamma
    violation: str | None


@dataclass(frozen=True)
class ExponentialTypeResult:
    verdict: bool
    certificates: tuple
    heuristic: bool


def exponential_type_test(L: LieAlgebra, M: LieModule):
    """Decide whether every weight is a complex multiple (1 + i theta) of a
    real functional, with no purely imaginary weights.

    The verdict is exact whenever the weights are.  Each weight receives a
    certificate (theta, gamma) or a named violation: "purely imaginary
    weight" or "independent real and imaginary parts".
    """
    weights = module_weights(L, M)
    heuristic = any(not w.exact for w in weights)
    certs = []
    verdict = True
    for w in weights:
        if w.exact:
            re_zero = all(a == 0 for a in w.re)
            im_zero = all(a == 0 for a in w.im)
        else:
            re_zero = all(abs(a) < 1e-6 for a in w.re)
            im_zero = all(abs(a) < 1e-6 for a in w.im)
        if im_zero:
            theta = Fraction(0) if w.exact else 0.0
            certs.append(WeightCertificate(w, theta, w.re, None))
            continue
        if re_zero:
            verdict = False
            certs.append(WeightCertificate(w, None, None, "purely imaginary weight"))
            continue
        if w.exact:
            j = next(i for i, a in enumerate(w.re) if a != 0)
            theta = w.im[j] / w.re[j]
            dependent = all(b == theta * a for a, b in zip(w.re, w.im))
        else:
            j = max(range(len(w.re)), key=lambda i: abs(w.re[i]))
            theta = w.im[j] / w.re[j]
            dependent = all(
                abs(b - theta * a) < 1e-6 * max(1.0, abs(theta))
                for a, b in zip(w.re, w.im)
            )
        if dependent:
            certs.append(WeightCertificate(w, theta, w.re, None))
        else:
            verdict = False
            certs.append(
                WeightCertificate(w, None, None, "independent real and imaginary parts")
            )
    return ExponentialTypeResult(verdict, tuple(certs), heuristic)


def algebra_is_exponential(L: LieAlgebra):
    """Exponential-type verdict for the adjoint module (group exponentiality);
    a Q(i) algebra is tested as its realification, whose verdict is basis-free."""
    if L.field == "Qi":
        L = realify(L)
    return exponential_type_test(L, adjoint_module(L))
