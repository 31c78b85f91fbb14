"""Module weights of solvable Lie algebras and the exponential-type test.

Weights are found a layer at a time, by Lie's theorem.  Write D = [L, L].  D
acts nilpotently, so the joint kernel V0 of the D-actions is nonzero; V0 is
invariant because D is an ideal; and on V0 the complement directions (the
basis vectors off the pivot columns of D's echelon basis) commute, since
their brackets lie in D.  A layer takes V0 with one kernel and restricts
every complement action to it.  Commuting actions split V0 into joint
eigenspace pieces: an action whose characteristic polynomial on a piece is
(T - mu)^k gives mu to all k weights of the piece at once; otherwise the
eigenspace of its least Gaussian-rational root is invariant under the other
actions, and the piece splits into it and the quotient by it.  The weight on
a pivot column follows from vanishing on D.  Every action then passes to
V/V0 with one rank-k update, and the next layer repeats; each weight comes
out once, with its multiplicity.

The search runs on integers.  Each action enters as the integer or
Gaussian-integer rows N and positive integer denominator s that its `Matrix`
stores, the action being N / s, and every step keeps such a pair, reduced to
lowest terms by `lowest_terms`; kernels and eigenspaces come from
`kernel_int`, which gives the isotropy algebras too, the restricted
characteristic polynomials from `charpoly_int` and their least roots from
`least_gaussian_root`; every scale stays a positive integer, so that root
over the scale is the least eigenvalue.  A weight's values are integers over
the lcm of its eigenvalues' scales.  The adjoint module's actions are
ad(Y_i), read from the algebra's integer bracket table by `ad_matrix`.

The search is exact over the Gaussian rationals.  When a restricted
characteristic polynomial does not split over the Gaussian integers, a float
path takes over and the results carry exact=False.  Every root of such a
polynomial is the value of a weight of the module, and the pieces together
hold the whole weight multiset, so this happens exactly when some weight is
not Gaussian-rational on the complement, as it did for the earlier searches
over one joint eigenvector at a time.  The root search has no budget.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    NumericError,
    charpoly_int,
    common_denominator,
    kernel_int,
    least_gaussian_root,
    lowest_terms,
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


def _restrict(acts, vecs, coords, e):
    """The actions N / s on the span of integer vectors W_k that are e at
    coordinate c_k and 0 at the other coordinates, in the basis W_k: the
    matrix R[j][k] = (N W_k)[c_j] over s e."""
    supports = [[(t, x) for t, x in enumerate(v) if x] for v in vecs]
    return [lowest_terms([[sum(a[c][t] * x for t, x in sup) for sup in supports] for c in coords],
                         s * e) for a, s in acts]


def _modulo(acts, vecs, coords, e):
    """The actions N / s on the quotient by the span of the W_k, in the basis
    e_j, j off the coordinates c_k: the rank-k update
    e N[i][j] - sum_k W_k[i] N[c_k][j] over e s, which is P^-1 A P for
    P = (W_k, e_j) without the rows and columns of the W_k."""
    keep = sorted(set(range(len(vecs[0]))) - set(coords))
    out = []
    for a, s in acts:
        tops = [[a[c][j] for j in keep] for c in coords]
        rows = []
        for i in keep:
            row = [e * a[i][j] for j in keep]
            for v, top in zip(vecs, tops):
                if v[i]:
                    row = [x - v[i] * y for x, y in zip(row, top)]
            rows.append(row)
        out.append(lowest_terms(rows, e * s))
    return out


def _split(acts):
    """(the eigenvalues (mu, t), dimension) of each joint eigenspace piece of
    commuting actions R / t on one space, the eigenvalue of R_i being mu / t.

    An action whose characteristic polynomial is (T - mu)^k gives mu to every
    weight of the piece at once.  Otherwise its eigenspace ker(R - mu) for the
    least root mu is invariant under the other actions: the later actions
    go on there, restricted, and every action goes on on the quotient by it.
    """
    stack = [(acts, ())]
    while stack:
        acts, lams = stack.pop()
        (r, t), rest = acts[0], acts[1:]
        p = charpoly_int(r)
        mu = least_gaussian_root(p)
        if mu is None:
            raise InexactSpectrum("no eigenvalue over the Gaussian rationals")
        power = [1]  # (T - mu)^k
        for _ in r:
            power = [-mu * power[0]] + [x - mu * y for x, y in zip(power, power[1:])] + [1]
        if power == p:
            piece, k = rest, len(r)
        else:
            vecs, coords, e = kernel_int([[x - mu if i == j else x for j, x in enumerate(row)]
                                          for i, row in enumerate(r)], len(r))
            stack.append((_modulo(acts, vecs, coords, e), lams))
            piece, k = _restrict(rest, vecs, coords, e), len(coords)
        if piece:
            stack.append((piece, lams + ((mu, t),)))
        else:
            yield lams + ((mu, t),), k


def _weights_exact(M, derived):
    """The weights of M with multiplicity, as their values on the basis, in
    layers: the joint kernel V0 of the [L, L]-actions, split by `_split`,
    then the quotient by V0.

    Values on the complement of [L, L] (the non-pivot columns of `derived`)
    are eigenvalues; on each pivot column p the weight is fixed by vanishing
    on the derived row w_p: lambda(e_p) = -sum_j w_pj lambda(e_j), all over
    the lcm of the eigenvalues' scales.  Each action enters as its integer
    rows and scale; the [L, L]-actions are combined over the common scale S
    of all actions, A_i = N_i / S.
    """
    free = [j for j in range(M.algebra.dim) if j not in derived.pivots]
    S, ints = common_denominator(M.actions)
    d_acts = []
    for w in derived.ints:
        rows = [[0] * M.dim for _ in range(M.dim)]
        for c, a in zip(w, ints):
            if c:
                rows = [[x + c * y for x, y in zip(row, a_row)] for row, a_row in zip(rows, a)]
        d_acts.append(lowest_terms(rows, S))
    c_acts = [(M.actions[j].ints, M.actions[j].denominator) for j in free]
    out = []
    while True:
        n = len(c_acts[0][0])
        vecs, coords, e = kernel_int([row for a, _ in d_acts for row in a], n)
        for lams, k in _split(_restrict(c_acts, vecs, coords, e)):
            scale = math.lcm(*(t for _, t in lams))
            xs = [mu * (scale // t) for mu, t in lams]
            lam = [0] * M.algebra.dim
            for j, x in zip(free, xs):
                lam[j] = x * derived.denominator
            for w, p in zip(derived.ints, derived.pivots):
                lam[p] = -sum(w[j] * x for j, x in zip(free, xs))
            out += [tuple(zi_over(x, scale * derived.denominator) for x in lam)] * k
        if len(coords) == n:
            return out
        d_acts = _modulo(d_acts, vecs, coords, e)
        c_acts = _modulo(c_acts, vecs, coords, e)


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
    the module dimension.  The layer search on the joint kernels of the
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
    except InexactSpectrum:
        pass
    else:
        counts = Counter((tuple(map(scalar_re, lam)), tuple(map(scalar_im, lam))) for lam in tuples)
        return sorted((RootFunctional(re, im, True, m) for (re, im), m in counts.items()),
                      key=lambda f: tuple(zip(f.re, f.im)))
    out = []  # float weights, merged within 1e-6
    for lam in _weights_float([a.to_numpy().astype(complex) for a in M.actions]):
        re = tuple(float(x.real) for x in lam)
        im = tuple(float(x.imag) for x in lam)
        for idx, (ere, eim, count) in enumerate(out):
            if all(abs(a - b) < 1e-6 for a, b in zip(ere + eim, re + im)):
                out[idx] = (ere, eim, count + 1)
                break
        else:
            out.append((re, im, 1))
    fns = [RootFunctional(re, im, False, mult) for re, im, mult in out]
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
