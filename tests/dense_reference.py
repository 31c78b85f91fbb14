"""Dense structure-tensor references for the bracket-table code.

A tensor here is a nested list t[i][j][k] of exact scalars with
[Y_i, Y_j] = sum_k t[i][j][k] Y_k.  The builders and readers below are the
dense triple loops `lie.py` ran when an algebra stored the whole cube.  Every
tensor is built from bracket inputs or by these builders, never read back from
an algebra, so a comparison against them checks two independent
constructions.

The weight search `ref_weights_exact` is the depth-first joint-eigenvector
search over full action matrices that `weights.py` ran before it searched the
joint kernel of the derived algebra's actions; it is kept unchanged.

`ref_build_root_system` and `ref_kostant_cascade` are the root generation and
cascade that `rootsystems.py` ran on `Fraction` coordinates before it worked on
doubled integer coordinates; they are kept unchanged.  `doubled_build_root_system`
and `doubled_kostant_cascade` are that doubled-coordinate path, which ran before
the search moved to simple-root coefficients and the cascade to Dynkin
subdiagrams: the string test by dot products, and the components by a
non-orthogonality search over every pair of remaining roots.
`doubled_check_strongly_orthogonal` is the validation of the cascade on
doubled coordinates that ran before it tested sums and differences by
coefficient keys; it is kept unchanged.

`ref_lagrange_interpolate` and `ref_sturm_root_count` are the `Fraction`
interpolation and Sturm chain that the census segment probe ran before it
interpolated and counted roots on integers; they are kept unchanged.

`det_exact`, `solve_exact` and `matrix_inverse` are the `Fraction`
elimination helpers that `exact.py` kept without a caller in the package;
the tests still use them as independent exact references, the last two
eliminating with `ref_rref`.

`ref_charpoly_exact` and `ref_gaussian_rational_roots` are the `Fraction`
Faddeev-LeVerrier recursion and the root search that `exact.py` ran before
the weight search worked on integer matrices: every candidate tried by
`GaussianRational` evaluation and deflation by `poly_divide_linear`; they are
kept unchanged, and `ref_weights_exact` runs on them.  The divisor scan
`_gaussian_divisors`, its `_Budget` and `ROOT_SEARCH_BUDGET` are moved here
unchanged from `exact.py`, whose root search now bisects real parts.  `ref_weights_joint_kernel`
with `ref_eigenline` and `ref_quotient` is the joint-kernel flag search that
`weights.py` ran on `Fraction` and `GaussianRational` matrices before it ran
on integer matrices; it is kept unchanged.  `ref_weights_int_walk` with
`ref_eigenline_int` and `ref_quotient_int` is that search on integer
matrices, one weight a step, as `weights.py` ran it before it found the
weights a layer at a time; it is kept unchanged, except for the names.

`eigenvalues_numeric` is the residual-certified float eigenvalue routine
that `exact.py` kept without a caller in the package; it is kept unchanged.

`ref_rref` is the generic `Fraction` Gauss-Jordan elimination that `rref` ran
on rational rows before it scaled them to integers and eliminated
fraction-free; it is kept unchanged.  `RefSubspace` is `lie.Subspace` as it
was before it stored integer echelon rows: the `Fraction` and
`GaussianRational` reduced rows, here from `ref_rref`, with its `reduce` kept
as `ref_reduce`.

`ref_frobenius_test` is the seeded open-orbit search that `lie census` ran
beside the census before it took the witness from the census's own first
kept sample; it is kept unchanged.  `_always_degenerate`, the odd-dimension
and center test by which the census drew no sample before it computed the
Pfaffian as a polynomial, is moved here unchanged for it.
`ref_probe_classes` is `open_component_census` as it ran before it classed
the samples of a certified Pfaffian by the signs of its linear factors:
every input through segment probes.  It is kept unchanged, except for its
name and for returning, beside the census, the kept samples in the order
they were kept and the kept samples of each class; `ref_probe_census`
returns the census alone.

`DenseMatrix` is the `Matrix` that `exact.py` kept before it stored scaled
integer rows: `Fraction` and `GaussianRational` entries with `identity`,
`zeros`, `trace`, `+`, `-`, `@`, `scale` and `apply`.  `ref_action_of` is
`LieModule.action_of` and `ref_law_failure` the representation-law check
`make_module` ran on them.  They are kept unchanged, except that the class is
renamed, `action_of` takes the module as an argument and `ref_law_failure`
takes [Y_i, Y_j] from `LieAlgebra.bracket`.  The oracles above
that compute with matrices run on `DenseMatrix`: `ref_weights_exact` and
`ref_weights_joint_kernel` copy the library's actions into it on entry, and
every `rank_kernel` call gets a library `Matrix` of the same entries.

`ref_pullback_isomorphism_verify` is the pullback verifier that
`groupoids.py` ran before its functor loop read the isotropy products from
a table: every product through `FiniteGroupoid.compose` and the pullback's
own product.  `ref_action_make` is `FiniteGroupAction.make` as it was
before it checked compatibility on generators: every pair (g, h) at every
point.  Both are kept unchanged, except that `ref_action_make` composes the
products with `FiniteGroup.op`, since the tabulated `FiniteGroup.rows` are
gone, and returns the action as its integer rows, which
`FiniteGroupAction` holds in place of the labelled table, and that the
pullback verifier reads identities and inverses from the
label dicts, its pairs from `ref_composable_pairs` and its pullback from
`ref_build_pullback`, since the one-line accessors and the label index are
gone from `FiniteGroupoid`.  `ref_action_from_json` is the action document
path that fed `FiniteGroupAction.make` a labelled mapping, every entry read
through `groupoids._at`; it ends in `ref_action_make`.

`ref_square_pullback_verify` is the pullback verifier that
`groupoid_ids.py` ran before its functor pass compared middle arrows read
from the pair table: the pullback id of Phi(g) o Phi(h) through a second
table of the isotropy products (a square with row, column and slot offsets),
with the endpoints checked again.  It is kept unchanged, except for its
name.  Both pullback verifiers AND their identity and inverse verdicts with
`ref_laws`, the identity and inverse laws by label loops, which the
library's verifier has checked on its pair table since it stopped passing
tables that break them.

`ref_label_ids` is the integer view that `GroupoidIds` read off the label
dicts of every groupoid, transformation groupoids included, before these
computed theirs from the action's rows: sources, targets, identities and
inverses, each through the label index, -1 where a label is no morphism.
`ref_transformation_labels` gives the morphisms and label dicts that
`transformation_groupoid` built from the labelled action table, the
group's identity and `FiniteGroup.inv` before it filled them from the ids.

`ref_validate_groupoid` is the axiom check that `groupoids.py` ran as loops
over labelled morphisms, every product through `FiniteGroupoid.product`:
endpoints on every composable pair, identity and inverse laws per morphism,
then associativity on every composable triple, refused above
`TRIPLE_CAP` triples before any product.  It is kept unchanged, except that
it reads the cap from the module, so a test can lower it, and its pairs
from the label scans below.

`ref_group_by` is the label-scan index that `FiniteGroupoid` kept beside
its integer view (`homs`, `out_of`, `into` grouped by one pass over the
labels); `ref_out_of`, `ref_into`, `ref_hom` and `ref_composable_pairs` read
it.  `ref_classify` is `classify` as it decided "bundle" and "pair" by label
loops and one hom-set lookup per pair of objects, and `ref_build_pullback`
the pullback's nested-loop enumeration over labels that `build_pullback` ran
before it labelled the triples of `PullbackIds`: x in object order, y in the
orbit of x, h in the isotropy at their representative, with the label
product and no integer view of its own.

`ref_lie_bracket`, `ref_ad_matrix`, `ref_adjoint_module` and `ref_bform` are
`LieAlgebra.bracket`, `ad_matrix`, `adjoint_module` and `bform` as `lie.py`
and `coadjoint.py` ran them before they read the integer table D C and its
scale D: `Fraction` and `GaussianRational` sums over `L.pair_terms` and
`L.brackets`.  `rank_kernel` is the rank and `Fraction` kernel basis that
`exact.py` kept over `kernel_int` before the orbit dimension and isotropy
algebra eliminated the integer form directly.  They are kept unchanged,
except that `ref_ad_matrix` brackets with `ref_lie_bracket` and `ref_bform`
sums inline what `_form_values` summed over `L.brackets`.

`ref_coadjoint_stratification` is the jump-index stratification that
`strata.py` ran before it computed one jump set per line through the origin:
`ref_jump_indices` at every sample point, on the integer form D B_{d xi} and
the m^2 products with the flag-adapted columns, over points drawn by
`ref_sample_points` as `Fraction` tuples.  `ref_is_ideal` is the `Fraction`
bracket-and-membership loop that `jordan_holder_flag` ran on every flag
member before it checked ideals over the integers.  They are kept unchanged,
except for their names, for `ref_rref` in place of `rref` on Q(i) algebras,
for `ref_adapted_columns`, the flag-adapted columns as `strata` read them
from the `Fraction` rows of the flag, and for the Q(i) form, which
`ref_jump_indices` takes from `ref_bform`; `ref_jump_indices` keeps the
per-point skew-form rank check that `strata.jump_indices` replaced by a
certificate of its tables.

`stratify_module`, `orbit_tangent_rank`, `point_isotropy` (with `_orbit_rows`,
`_tangent_rank`, `_layers_by_line`, `ModuleStratum` and `ModuleStratification`)
are the module orbit layers that `strata.py` kept after only tests reached
them: one orbit dimension per line through the origin, with openness probes
at each layer's first point.  They are kept unchanged.

`basis_vector(L, i)` is the `Fraction` basis vector that `LieAlgebra` kept
as a method after no module of the package called it, and
`realify_subspace` the real span of a complex subspace that `lie.py` kept
(with its `realify_vector`) after no module called it.

`validate_group` and `is_abelian(G)` are the exhaustive group check and
`FiniteGroup.is_abelian` that `groupoids.py` kept after no module of the
package called them; they are kept unchanged, except that `is_abelian`
takes the group as an argument.  `ref_pid` is the pullback id of one
(x, h, y) that `PullbackIds.pid` gave before the pullback verifier read
them as arrays.

`ref_minus_one_probe` is the eigenvalue -1 probe's scan by spectral
mapping, an oracle independent of the integer search: the eigenvalues mu of
ad(x) to 50 digits (`mpmath.eig`), and a hit at the first grid value t, in
the probe's order, where some |exp(t mu) + 1| is below `MINUS_ONE_GAP`.
"""
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from fractions import Fraction as Q
from typing import Iterable, Sequence

import mpmath
import numpy as np

from liegrpd.catalog import axb_tautological_module
from liegrpd.coadjoint import ComponentCensus, MinusOneProbe, _det_at, _form_rows
from liegrpd.coadjoint import _segment_nondegenerate
from liegrpd.coadjoint import integer_bform
from liegrpd.exact import Matrix, NumericError, Scalar
from liegrpd.exact import GaussianRational, format_scalar, gaussian, is_exact, poly_eval
from liegrpd.exact import kernel_int, rref_int, zi_over, zi_rows
from liegrpd.exact import charpoly_int, common_denominator, least_gaussian_root
from liegrpd.exact import lowest_terms, positive_multiplier
from liegrpd.exact import scalar_im, scalar_re
from liegrpd import groupoids
from liegrpd.groupoids import (
    AxiomError,
    FiniteGroup,
    FiniteGroupAction,
    FiniteGroupoid,
    PullbackReport,
    canonical_sections,
)
from liegrpd.groupoid_ids import PullbackIds, chunks
from liegrpd.lie import LieAlgebra, LieModule, Subspace, ad_matrix, center_of, checked_subalgebra
from liegrpd.strata import (
    GRID_RADIUS,
    SAMPLE_BOUND,
    CoadjointStratification,
    CoadjointStratum,
    _line_key,
    _sample_points,
    index_order_leq,
    jordan_holder_flag,
)
from liegrpd.weights import InexactSpectrum, algebra_is_exponential


class DenseMatrix:
    """Immutable dense matrix with exact entries (`Fraction` or `GaussianRational`)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data: Iterable[Iterable]):
        data = tuple(
            tuple(x if type(x) is Fraction else _exact_entry(x) for x in row)
            for row in rows_data
        )
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "DenseMatrix":
        one, zero = Fraction(1), Fraction(0)
        return DenseMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "DenseMatrix":
        zero = Fraction(0)
        return DenseMatrix([[zero] * c for _ in range(r)])

    def __eq__(self, other):
        return isinstance(other, DenseMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.data]})"

    def __add__(self, other):
        self._check_shape(other)
        return DenseMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other):
        self._check_shape(other)
        return DenseMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __neg__(self):
        return DenseMatrix([[-a for a in row] for row in self.data])

    def _check_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        tdata = other.data
        return DenseMatrix(
            [
                [
                    sum((a * tdata[k][j] for k, a in enumerate(row) if a), Fraction(0))
                    for j in range(other.cols)
                ]
                for row in self.data
            ]
        )

    def scale(self, c) -> "DenseMatrix":
        return DenseMatrix([[c * a for a in row] for row in self.data])

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(list(zip(*self.data)))

    def trace(self):
        return sum((self.data[i][i] for i in range(min(self.rows, self.cols))), Fraction(0))

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        if not all(is_exact(x) for x in vec):
            raise TypeError("float vector applied to exact matrix")
        out = []
        for row in self.data:
            acc = Fraction(0)
            for a, x in zip(row, vec):
                acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def to_numpy(self) -> np.ndarray:
        """Float (or complex) copy; NumericError names an entry too large for a float."""
        is_complex = any(scalar_im(x) != 0 for row in self.data for x in row)
        out = np.empty((self.rows, self.cols), dtype=complex if is_complex else float)
        for i, row in enumerate(self.data):
            for j, x in enumerate(row):
                try:
                    out[i, j] = complex(x) if is_complex else float(x)
                except OverflowError:
                    raise NumericError(
                        f"matrix entry ({i}, {j}) does not fit a float"
                    ) from None
        return out


def scalar_key(x):
    """Deterministic sort key for exact scalars: (real, imaginary)."""
    return (scalar_re(x), scalar_im(x))


def _exact_entry(x) -> Scalar:
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, GaussianRational)):
        return x
    raise TypeError(f"matrix entries must be exact, got {type(x).__name__}")


def ref_action_of(M, x) -> DenseMatrix:
    """a(x) of the module M as a dense matrix."""
    out = DenseMatrix.zeros(M.dim, M.dim)
    for i, xi in enumerate(x):
        if xi != 0:
            out = out + DenseMatrix(M.actions[i].data).scale(xi)
    return out


def ref_law_failure(L: LieAlgebra, actions):
    """The first basis pair (i, j), i < j, with a([Y_i, Y_j]) != [a(Y_i), a(Y_j)],
    or None: the check `make_module` ran on dense matrices."""
    actions = [DenseMatrix(a.data) for a in actions]
    mod = LieModule(L, actions[0].rows, tuple(actions))
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = ref_action_of(mod, L.bracket(basis_vector(L, i), basis_vector(L, j)))
            rhs = actions[i] @ actions[j] - actions[j] @ actions[i]
            if lhs != rhs:
                return i, j
    return None


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


def basis_vector(L: LieAlgebra, i: int) -> tuple:
    return tuple(Fraction(1 if j == i else 0) for j in range(L.dim))


def realify_subspace(s: Subspace) -> Subspace:
    """Real span of {v, iv} for v in a complex subspace, in the doubled
    coordinates (Re z_1..Re z_m, Im z_1..Im z_m) of `lie.realify`."""
    vectors = [tuple(c * a for a in v) for v in s.rows for c in (1, gaussian(0, 1))]
    return Subspace.from_vectors(2 * s.ambient, [
        tuple(scalar_re(z) for z in v) + tuple(scalar_im(z) for z in v) for v in vectors])


def ref_lie_bracket(L: LieAlgebra, x, y):
    """[x, y] by `Fraction` sums over the sparse table `L.pair_terms`."""
    pairs = L.pair_terms
    ys = [(j, yj) for j, yj in enumerate(y) if yj != 0]
    out = [Fraction(0)] * L.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in ys:
            for l, c in pairs.get((i, j), ()):
                out[l] = out[l] + xi * yj * c
    return tuple(out)


def ref_ad_matrix(L: LieAlgebra, x) -> Matrix:
    """Matrix of ad(x): y -> [x, y] in the algebra basis."""
    cols = [ref_lie_bracket(L, x, basis_vector(L, j)) for j in range(L.dim)]
    return Matrix([[cols[j][k] for j in range(L.dim)] for k in range(L.dim)])


def ref_adjoint_module(L: LieAlgebra) -> LieModule:
    """ad(Y_i) per basis vector, read off the bracket table, unchecked."""
    mats = [[[Fraction(0)] * L.dim for _ in range(L.dim)] for _ in range(L.dim)]
    for (i, j), terms in L.pair_terms.items():
        for l, c in terms:
            mats[i][l][j] = c
    return LieModule(L, L.dim, tuple(Matrix(m) for m in mats))


def ref_bform(L: LieAlgebra, xi) -> Matrix:
    """Skew form B(x, y) = xi([x, y]) as a dim x dim matrix over the basis,
    built from the bracket table `L.brackets`."""
    values = []
    for _, _, terms in L.brackets:
        acc = 0
        for l, c in terms:
            acc += c * xi[l]
        values.append(acc)
    return Matrix(_form_rows(L, values))


def rank_kernel(m: Matrix):
    """Exact rank and a kernel basis (list of tuples), each vector 1 at its
    own free column, from `kernel_int` on the integer rows."""
    vecs, free, e = kernel_int(m.ints, m.cols)
    return m.cols - len(free), [tuple(zi_over(x, e) for x in v) for v in vecs]


def ref_centralizer_mod(t, s):
    """{x : [Y_j, x] in s for every j}; kernel rows indexed by (j, k)."""
    m = len(t)
    rows = [row for j in range(m)
            for row in zip(*(ref_reduce(s, tuple(t[j][i])) for i in range(m)))]
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


def ref_charpoly_exact(m: DenseMatrix):
    """Monic characteristic polynomial coefficients [c0, ..., c_{n-1}, 1].

    Faddeev-LeVerrier recursion; exact over Q and Q(i).
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = DenseMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        ck = -mk.trace() / k
        coeffs[n - k] = ck
        if k < n:
            mk = mk + DenseMatrix.identity(n).scale(ck)
    return coeffs


def poly_divide_linear(coeffs: Sequence[Scalar], root: Scalar):
    """Divide p(t) by (t - root); returns (quotient coeffs, remainder)."""
    acc = Fraction(0)
    out = []
    for c in reversed(coeffs):
        acc = acc * root + c
        out.append(acc)
    rem = out.pop()
    quots = list(reversed(out))
    return quots, rem


class _Budget:
    def __init__(self, n):
        self.left = n

    def spend(self, k=1):
        self.left -= k
        return self.left >= 0


def _gaussian_divisors(a: int, b: int, budget: _Budget):
    """All Gaussian-integer divisors of a+bi (all unit multiples included)."""
    norm = a * a + b * b
    if norm == 0:
        return []
    if math.isqrt(norm) > budget.left:
        return None  # the scan of divisors up to sqrt(norm) alone overspends
    divisors_of_norm = []
    d = 1
    while d * d <= norm:
        if not budget.spend():
            return None
        if norm % d == 0:
            divisors_of_norm.append(d)
            if d * d != norm:
                divisors_of_norm.append(norm // d)
        d += 1
    found = set()
    for nd in divisors_of_norm:
        aa = 0
        while aa * aa <= nd:
            if not budget.spend():
                return None
            rest = nd - aa * aa
            bb = math.isqrt(rest)
            if bb * bb == rest:
                for ca, cb in {(aa, bb), (bb, aa)}:
                    for sa in (1, -1):
                        for sb in (1, -1):
                            ua, ub = sa * ca, sb * cb
                            if ua == 0 and ub == 0:
                                continue
                            # exact divisibility: (a+bi)(ua-ub i)/nd integral
                            num_re = a * ua + b * ub
                            num_im = b * ua - a * ub
                            if num_re % nd == 0 and num_im % nd == 0:
                                found.add((ua, ub))
            aa += 1
    return sorted(found)


ROOT_SEARCH_BUDGET = 10**6  # candidate divisors and ratios one root search may try


def ref_gaussian_rational_roots(coeffs: Sequence[Scalar]):
    """All Gaussian-rational roots of an exact polynomial, with multiplicity.

    Returns (roots, complete) where roots is a list of (root, multiplicity)
    sorted by (re, im) and complete is True when the multiplicities sum to
    the degree.  A search that exhausts the candidate budget returns the
    roots found so far with complete=False.
    """
    coeffs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    n = len(coeffs) - 1
    if n <= 0:
        return [], True
    roots = {}
    work = list(coeffs)
    while len(work) > 1 and work[0] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        work = work[1:]
    bud = _Budget(ROOT_SEARCH_BUDGET)
    complete = True
    if len(work) > 1:
        # clear denominators: integer-Gaussian coefficients
        denoms = []
        for c in work:
            denoms.append(scalar_re(c).denominator)
            denoms.append(scalar_im(c).denominator)
        d = math.lcm(*denoms)
        ints = [(int(scalar_re(c) * d), int(scalar_im(c) * d)) for c in work]
        c0, cn = ints[0], ints[-1]
        nums = _gaussian_divisors(c0[0], c0[1], bud)
        dens = None if nums is None else _gaussian_divisors(cn[0], cn[1], bud)
        if nums is None or dens is None:
            complete = False
        else:
            # one denominator per associate class: rotate into re>0, im>=0
            canon = set()
            for (da, db) in dens:
                while not (da > 0 and db >= 0):
                    da, db = -db, da
                canon.add((da, db))
            candidates = set()
            for (ua, ub) in nums:
                for (da, db) in canon:
                    if not bud.spend():
                        complete = False
                        break
                    candidates.add(gaussian(Fraction(ua), Fraction(ub)) / gaussian(Fraction(da), Fraction(db)))
                if not complete:
                    break
            for z in sorted(candidates, key=scalar_key):
                if poly_eval(work, z) == 0:
                    mult = 0
                    q = work
                    while True:
                        q2, rem = poly_divide_linear(q, z)
                        if rem != 0 or len(q2) == 0:
                            break
                        mult += 1
                        q = q2
                    roots[z] = mult
    total = sum(roots.values())
    if total < n:
        complete = False
    out = sorted(roots.items(), key=lambda kv: scalar_key(kv[0]))
    return out, complete


def ref_charpoly_exact_roots(m: DenseMatrix):
    """(monic charpoly coeffs, [(root, mult)], complete flag)."""
    poly = ref_charpoly_exact(m)
    roots, complete = ref_gaussian_rational_roots(poly)
    return poly, roots, complete


def ref_common_eigenvector_exact(mats):
    """Depth-first search for a joint eigenvector with Gaussian-rational
    eigenvalues.  Returns (eigenvalue tuple, vector) or None."""
    n = mats[0].rows
    eye = DenseMatrix.identity(n)

    def descend(idx, space_rows):
        if idx == len(mats):
            return (), space_rows[0]
        a = mats[idx]
        _, roots, _ = ref_charpoly_exact_roots(a)
        for lam, _mult in sorted(roots, key=lambda rm: scalar_key(rm[0])):
            shifted = a - eye.scale(lam)
            _, ker = rank_kernel(Matrix(shifted.data))
            if not ker:
                continue
            if space_rows is None:
                new_rows = ker
            else:
                new_rows = ref_intersect(space_rows, ker, n)
            if not new_rows:
                continue
            deeper = descend(idx + 1, new_rows)
            if deeper is not None:
                tail, vec = deeper
                return (lam,) + tail, vec
        return None

    return descend(0, None)


def ref_intersect(rows_a, rows_b, n):
    """Intersection of two row-spans inside an n-dim exact space."""
    k, l = len(rows_a), len(rows_b)
    cols = []
    for r in range(n):
        cols.append(
            [rows_a[i][r] for i in range(k)] + [-rows_b[j][r] for j in range(l)]
        )
    _, ker = rank_kernel(Matrix(cols))
    vecs = []
    for coeff in ker:
        v = [Q(0)] * n
        for i in range(k):
            if coeff[i] != 0:
                for r in range(n):
                    v[r] = v[r] + coeff[i] * rows_a[i][r]
        if any(x != 0 for x in v):
            vecs.append(tuple(v))
    return list(Subspace.from_vectors(n, vecs).rows)


def ref_quotient_exact(mats, v):
    n = mats[0].rows
    pivot = next(i for i, x in enumerate(v) if x != 0)
    cols = [list(v)] + [
        [Q(1) if r == j else Q(0) for r in range(n)]
        for j in range(n)
        if j != pivot
    ]
    p = DenseMatrix(list(zip(*cols)))
    p_inv = matrix_inverse(p)
    out = []
    for a in mats:
        conj = p_inv @ a @ p
        out.append(DenseMatrix([row[1:] for row in conj.data[1:]]) if n > 1 else None)
    return out


def ref_weights_exact(mats):
    mats = [DenseMatrix(m.data) for m in mats]
    n = mats[0].rows
    if n == 0:
        return []
    found = ref_common_eigenvector_exact(mats)
    if found is None:
        raise InexactSpectrum("no joint eigenvector over the Gaussian rationals")
    lam, vec = found
    if n == 1:
        return [lam]
    return [lam] + ref_weights_exact(ref_quotient_exact(mats, vec))


def ref_eigenline(d_acts, c_acts):
    """A vector on which every action is scalar, and the scalars of c_acts.

    The joint kernel of d_acts is invariant and c_acts commute on it; each
    c_act in turn shrinks it to the eigenspace of its least root.
    """
    n = c_acts[0].rows
    if d_acts:
        _, ker = rank_kernel(Matrix([row for a in d_acts for row in a.data]))
        space = Subspace.from_vectors(n, ker)
    else:
        space = Subspace.full(n)
    lams = []
    for a in c_acts:
        images = [a.apply(v) for v in space.rows]
        r = DenseMatrix([[img[p] for img in images] for p in space.pivots])
        _, roots, _ = ref_charpoly_exact_roots(r)
        if not roots:
            raise InexactSpectrum("no eigenvalue over the Gaussian rationals")
        lam = roots[0][0]  # the roots come sorted by scalar_key
        _, ker = rank_kernel(Matrix((r - DenseMatrix.identity(r.rows).scale(lam)).data))
        space = Subspace.from_vectors(
            n, [tuple(sum((c * v[t] for c, v in zip(k, space.rows)), Fraction(0))
                      for t in range(n)) for k in ker])
        lams.append(lam)
    return lams, space.rows[0]


def ref_quotient(a, v, p):
    """The action on V/<v> in the basis e_j, j != p (v[p] != 0): the rank-one
    update A[i][j] - v[i] A[p][j] / v[p], which is P^-1 A P for
    P = (v, e_j for j != p) without its first row and column."""
    ap = a.data[p]
    return DenseMatrix([[x - f * y for j, (x, y) in enumerate(zip(row, ap)) if j != p]
                   for i, (row, f) in enumerate(zip(a.data, (x / v[p] for x in v))) if i != p])


def ref_weights_joint_kernel(M, derived):
    """The weight of each step of a flag of M, as its values on the basis.

    Values on the complement of [L, L] (the non-pivot columns of `derived`)
    are eigenvalues; on each pivot column p the weight is fixed by vanishing
    on the derived row w_p: lambda(e_p) = -sum_j w_pj lambda(e_j).
    """
    free = [j for j in range(M.algebra.dim) if j not in derived.pivots]
    d_acts = [ref_action_of(M, w) for w in derived.rows]
    c_acts = [DenseMatrix(M.actions[j].data) for j in free]
    out = []
    while True:
        lams, v = ref_eigenline(d_acts, c_acts)
        lam = [Fraction(0)] * M.algebra.dim
        for j, x in zip(free, lams):
            lam[j] = x
        for w, p in zip(derived.rows, derived.pivots):
            lam[p] = -sum((w[j] * lam[j] for j in free), Fraction(0))
        out.append(tuple(lam))
        if c_acts[0].rows == 1:
            return out
        p = next(i for i, x in enumerate(v) if x != 0)
        d_acts = [ref_quotient(a, v, p) for a in d_acts]
        c_acts = [ref_quotient(a, v, p) for a in c_acts]


def ref_eigenline_int(d_acts, c_acts):
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


def ref_quotient_int(act, v, p):
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


def ref_weights_int_walk(M, derived):
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
        lams, v = ref_eigenline_int(d_acts, c_acts)
        lam = [Fraction(0)] * M.algebra.dim
        for j, x in zip(free, lams):
            lam[j] = x
        for w, p in zip(derived.rows, derived.pivots):
            lam[p] = -sum((w[j] * lam[j] for j in free), Fraction(0))
        out.append(tuple(lam))
        if len(v) == 1:
            return out
        p = next(i for i, x in enumerate(v) if x)
        d_acts = [ref_quotient_int(a, v, p) for a in d_acts]
        c_acts = [ref_quotient_int(a, v, p) for a in c_acts]


def eigenvalues_numeric(a: np.ndarray, tol: float = 1e-9):
    """Eigenvalues as complex floats, each certified by ||Av - lv|| <= tol*||A||."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise ValueError("eigenvalues of a non-square matrix")
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"eigenvalue iteration failed: {e}") from e
    scale = max(np.linalg.norm(a, 2), 1.0)
    for i, lam in enumerate(vals):
        v = vecs[:, i]
        nv = np.linalg.norm(v)
        if nv == 0:
            raise NumericError("zero eigenvector returned")
        res = np.linalg.norm(a @ v - lam * v) / nv
        if res > tol * scale:
            raise NumericError(f"eigenpair residual {res:.3e} exceeds {tol:.1e}*||A||")
    return sorted(vals.tolist(), key=lambda z: (z.real, z.imag))


# ---------------------------------------------------------------------------
# Root systems on Fraction coordinates


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
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _simple_roots(family: str, rank: int):
    l = rank
    if family == "A":
        n = l + 1
        return [_sub(_e(i, n), _e(i + 1, n)) for i in range(l)]
    if family == "B":
        roots = [_sub(_e(i, l), _e(i + 1, l)) for i in range(l - 1)]
        roots.append(_e(l - 1, l))
        return roots
    if family == "C":
        roots = [_sub(_e(i, l), _e(i + 1, l)) for i in range(l - 1)]
        roots.append(tuple(2 * x for x in _e(l - 1, l)))
        return roots
    if family == "D":
        roots = [_sub(_e(i, l), _e(i + 1, l)) for i in range(l - 1)]
        roots.append(_add(_e(l - 2, l), _e(l - 1, l)))
        return roots
    if family == "E":
        half = Q(1, 2)
        a1 = (half, -half, -half, -half, -half, -half, -half, half)
        a2 = _add(_e(0, 8), _e(1, 8))
        chain = [_sub(_e(i + 1, 8), _e(i, 8)) for i in range(6)]  # e_{i+1}-e_i
        full = [a1, a2] + chain
        return full[:rank] if rank < 8 else full
    if family == "F":
        return [
            _sub(_e(1, 4), _e(2, 4)),
            _sub(_e(2, 4), _e(3, 4)),
            _e(3, 4),
            (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)),
        ]
    if family == "G":
        return [
            (Q(1), Q(-1), Q(0)),
            (Q(-2), Q(1), Q(1)),
        ]
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class RootSystem:
    name: str
    family: str
    rank: int
    ambient_dim: int
    simple_roots: tuple
    positive_roots: tuple  # sorted by (height, coordinates)
    heights: tuple  # parallel to positive_roots


def ref_build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the named system and generate its positive roots exactly."""
    family = family.upper()
    if family not in _RANK_RANGE:
        raise ValueError(f"unknown family {family!r}")
    lo, hi = _RANK_RANGE[family]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"{family}{rank} is out of range (rank >= {lo}"
                         + (f", <= {hi})" if hi is not None else ")"))
    simples = [tuple(r) for r in _simple_roots(family, rank)]
    height = {r: 1 for r in simples}
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for alpha in simples:
                cartan = 2 * _dot(beta, alpha) / _dot(alpha, alpha)
                p = 0
                probe = _sub(beta, alpha)
                while probe in height:
                    p += 1
                    probe = _sub(probe, alpha)
                q = p - cartan
                if q > 0:
                    cand = _add(beta, alpha)
                    if cand not in height:
                        height[cand] = height[beta] + 1
                        nxt.append(cand)
        frontier = nxt
    positives = sorted(height, key=lambda r: (height[r], r))
    expected = _EXPECTED_POSITIVE_COUNTS[family](rank)
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
        tuple(simples),
        tuple(positives),
        tuple(height[r] for r in positives),
    )


def _components(roots):
    """Connected components under non-orthogonality, sorted by least root."""
    remaining = set(roots)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        remaining.discard(seed)
        grew = True
        while grew:
            grew = False
            for r in list(remaining):
                if any(_dot(r, c) != 0 for c in comp):
                    comp.add(r)
                    remaining.discard(r)
                    grew = True
        comps.append(comp)
    return sorted(comps, key=min)


def ref_kostant_cascade(rs: RootSystem) -> tuple:
    """Strongly orthogonal set built from recursive highest roots.

    Components are visited in order of their least root; within each the
    unique root of maximal height is taken and the recursion continues on the
    roots orthogonal to it.  The result is validated: pairwise orthogonal,
    and no sum or difference of two members is a root.
    """
    hmap = dict(zip(rs.positive_roots, rs.heights))

    def recurse(roots):
        out = []
        for comp in _components(roots):
            top = max(hmap[r] for r in comp)
            maxima = [r for r in comp if hmap[r] == top]
            if len(maxima) != 1:
                raise AssertionError(
                    f"component has {len(maxima)} height maxima; expected one"
                )
            mu = maxima[0]
            out.append(mu)
            rest = [r for r in comp if r != mu and _dot(r, mu) == 0]
            out.extend(recurse(rest))
        return out

    cascade = tuple(recurse(list(rs.positive_roots)))
    rootset = set(rs.positive_roots)
    for i, a in enumerate(cascade):
        for b in cascade[i + 1 :]:
            if _dot(a, b) != 0:
                raise AssertionError("cascade members are not orthogonal")
            for comb in (_add(a, b), _sub(a, b), _sub(b, a)):
                if comb in rootset or tuple(-x for x in comb) in rootset:
                    raise AssertionError("cascade members are not strongly orthogonal")
    return cascade


# Doubled-coordinate root generation and cascade: the integer path that
# `rootsystems.py` ran before it worked on simple-root coefficients.


def _de(i: int, n: int) -> tuple:
    """The doubled unit vector 2 e_i."""
    return tuple(2 if j == i else 0 for j in range(n))


def _dadd(a, b):
    return tuple(map(operator.add, a, b))


def _dsub(a, b):
    return tuple(map(operator.sub, a, b))


def _ddot(a, b):
    return sum(map(operator.mul, a, b))


def doubled_simple_roots(family: str, rank: int):
    """Simple roots in doubled coordinates 2 alpha."""
    l = rank
    if family == "A":
        return [_dsub(_de(i, l + 1), _de(i + 1, l + 1)) for i in range(l)]
    chain = [_dsub(_de(i, l), _de(i + 1, l)) for i in range(l - 1)]  # e_i - e_{i+1}
    if family == "B":
        return chain + [_de(l - 1, l)]
    if family == "C":
        return chain + [_dadd(_de(l - 1, l), _de(l - 1, l))]
    if family == "D":
        return chain + [_dadd(_de(l - 2, l), _de(l - 1, l))]
    if family == "E":
        chain = [_dsub(_de(i + 1, 8), _de(i, 8)) for i in range(6)]  # e_{i+1} - e_i
        return [(1, -1, -1, -1, -1, -1, -1, 1), _dadd(_de(0, 8), _de(1, 8))] + chain[:rank - 2]
    if family == "F":
        return [_dsub(_de(1, 4), _de(2, 4)), _dsub(_de(2, 4), _de(3, 4)), _de(3, 4),
                (1, -1, -1, -1)]
    if family == "G":
        return [(2, -2, 0), (-4, 2, 2)]
    raise ValueError(f"unknown family {family!r}")


def _dhalve(roots) -> tuple:
    half = {x: Q(x, 2) for x in set().union(*roots)}
    return tuple(tuple(half[x] for x in r) for r in roots)


@dataclass(frozen=True)
class DoubledRootSystem:
    name: str
    family: str
    rank: int
    ambient_dim: int
    simple_roots: tuple
    positive_roots: tuple  # sorted by (height, coordinates)
    heights: tuple  # parallel to positive_roots
    doubled_roots: tuple  # 2r as int tuples


def doubled_build_root_system(family: str, rank: int) -> DoubledRootSystem:
    """Generate the positive roots on doubled coordinates: beta + alpha is a
    root exactly when p <alpha, alpha> > 2 <beta, alpha>, p the depth of the
    alpha-string below beta."""
    family = family.upper()
    if family not in _RANK_RANGE:
        raise ValueError(f"unknown family {family!r}")
    lo, hi = _RANK_RANGE[family]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"{family}{rank} is out of range (rank >= {lo}"
                         + (f", <= {hi})" if hi is not None else ")"))
    simples = doubled_simple_roots(family, rank)
    norms = [_ddot(a, a) for a in simples]
    expected = _EXPECTED_POSITIVE_COUNTS[family](rank)
    height = {r: 1 for r in simples}
    frontier = list(simples)
    while frontier and len(height) <= expected:  # a wrong string test fails, not hangs
        nxt = []
        for beta in frontier:
            for alpha, norm in zip(simples, norms):
                p = 0
                probe = _dsub(beta, alpha)
                while probe in height:
                    p += 1
                    probe = _dsub(probe, alpha)
                if p * norm > 2 * _ddot(beta, alpha):  # p - <beta, alpha^vee> > 0
                    cand = _dadd(beta, alpha)
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
    return DoubledRootSystem(
        f"{family}{rank}",
        family,
        rank,
        len(simples[0]),
        _dhalve(simples),
        _dhalve(positives),
        tuple(height[r] for r in positives),
        tuple(positives),
    )


def _doubled_components(roots):
    """Connected components under non-orthogonality, in order of least root."""
    remaining = set(roots)
    comps = []
    while remaining:
        seed = min(remaining)
        remaining.discard(seed)
        comp, stack = [seed], [seed]
        while stack:
            c = stack.pop()
            linked = [r for r in remaining if _ddot(r, c) != 0]
            remaining.difference_update(linked)
            comp += linked
            stack += linked
        comps.append(comp)
    return comps


def doubled_kostant_cascade(rs: DoubledRootSystem) -> tuple:
    """The cascade of highest roots, found by splitting the remaining roots
    into components under non-orthogonality; validated as strongly
    orthogonal."""
    hmap = dict(zip(rs.doubled_roots, rs.heights))

    def recurse(roots):
        out = []
        for comp in _doubled_components(roots):
            top = max(hmap[r] for r in comp)
            maxima = [r for r in comp if hmap[r] == top]
            if len(maxima) != 1:
                raise AssertionError(f"component has {len(maxima)} height maxima; expected one")
            mu = maxima[0]
            out.append(mu)
            rest = [r for r in comp if r != mu and _ddot(r, mu) == 0]
            out.extend(recurse(rest))
        return out

    cascade = recurse(list(rs.doubled_roots))
    for i, a in enumerate(cascade):
        for b in cascade[i + 1 :]:
            if _ddot(a, b) != 0:
                raise AssertionError("cascade members are not orthogonal")
            for comb in (_dadd(a, b), _dsub(a, b), _dsub(b, a)):
                if comb in hmap or tuple(-x for x in comb) in hmap:
                    raise AssertionError("cascade members are not strongly orthogonal")
    halved = dict(zip(rs.doubled_roots, rs.positive_roots))
    return tuple(halved[r] for r in cascade)


def doubled_check_strongly_orthogonal(cascade, roots) -> None:
    """Raise unless the doubled roots in `cascade` are pairwise orthogonal and
    no sum or difference of two of them is in the set `roots` or its negative."""
    for i, a in enumerate(cascade):
        for b in cascade[i + 1 :]:
            if _ddot(a, b) != 0:
                raise AssertionError("cascade members are not orthogonal")
            total, diff = _dadd(a, b), _dsub(a, b)  # -(a - b) = b - a
            if not roots.isdisjoint((total, diff, _dsub(b, a), tuple(-x for x in total))):
                raise AssertionError("cascade members are not strongly orthogonal")


def _poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_derivative(p):
    return _poly_trim([i * c for i, c in enumerate(p)][1:]) if len(p) > 1 else [Q(0)]


def _poly_rem(a, b):
    """Remainder of a / b over Fractions."""
    a, b = _poly_trim(a), _poly_trim(b)
    if b == [Q(0)] or b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _poly_trim(a) != [Q(0)]:
        a = _poly_trim(a)
        if len(a) - 1 < db:
            break
        f = a[-1] / lead
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
    return _poly_trim(a)


def ref_sturm_root_count(p, a: Q, b: Q) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    p = _poly_trim([Q(c) for c in p])
    if len(p) == 1:
        return 0
    chain = [p, _poly_derivative(p)]
    while _poly_trim(chain[-1]) != [Q(0)] and len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if rem == [Q(0)]:
            break
        chain.append([-c for c in rem])
    if _poly_trim(chain[-1]) == [Q(0)]:
        chain.pop()

    def variations(x):
        signs = []
        for q in chain:
            v = poly_eval(q, x)
            if v != 0:
                signs.append(1 if v > 0 else -1)
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(a) - variations(b)


def ref_lagrange_interpolate(points):
    """Exact polynomial coefficients through (x, y) pairs, degree < #points."""
    n = len(points)
    coeffs = [Q(0)] * n
    for i, (xi, yi) in enumerate(points):
        others = [xj for j, (xj, _) in enumerate(points) if j != i]
        denom = Q(1)
        for xj in others:
            denom *= xi - xj
        basis = _poly_from_roots(others)
        scale = yi / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    return _poly_trim(coeffs)


def _poly_from_roots(roots):
    p = [Q(1)]
    for r in roots:
        p = [Q(0)] + p
        for k in range(len(p) - 1):
            p[k] = p[k] - r * p[k + 1]
    return p


def det_exact(m: DenseMatrix):
    """Exact determinant by fraction-based elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    a = [list(r) for r in m.data]
    n = m.rows
    det = Q(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c]
        inv = a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def solve_exact(m: DenseMatrix, rhs):
    """Solve m x = rhs exactly; None when inconsistent, a particular solution else."""
    aug = [list(row) + [v] for row, v in zip(m.data, rhs)]
    red, pivots = ref_rref(aug)
    if m.cols in pivots:
        return None
    x = [Q(0)] * m.cols
    for row_idx, p in enumerate(pivots):
        x[p] = red[row_idx][-1]
    return tuple(x)


def matrix_inverse(m: DenseMatrix) -> DenseMatrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    aug = [list(row) + list(ident_row) for row, ident_row in zip(m.data, DenseMatrix.identity(m.rows).data)]
    red, pivots = ref_rref(aug)
    if pivots != list(range(m.rows)):
        raise ValueError("matrix is singular")
    return DenseMatrix([row[m.rows:] for row in red])


def ref_rref(rows):
    """Reduced row-echelon form. Returns (rref rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


@dataclass(frozen=True)
class RefSubspace:
    """Subspace of an ambient exact coordinate space.

    The basis is stored as the reduced row-echelon rows, so two equal
    subspaces compare equal structurally, and membership is a reduction
    against those rows.
    """

    ambient: int
    rows: tuple

    @staticmethod
    def from_vectors(ambient: int, vectors) -> "RefSubspace":
        vectors = [v for v in vectors if not all(a == 0 for a in v)]
        if not vectors:
            return RefSubspace(ambient, ())
        red, _ = ref_rref(vectors)
        return RefSubspace(ambient, tuple(red))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple:
        return tuple(next(i for i, x in enumerate(row) if x != 0) for row in self.rows)

    def contains(self, v) -> bool:
        return all(a == 0 for a in ref_reduce(self, v))


def ref_reduce(s, v):
    """v minus its component at each row's pivot: zero exactly on the span.
    Reads the exact `rows` and `pivots` of s, a `RefSubspace` or `Subspace`."""
    for row, p in zip(s.rows, s.pivots):
        c = v[p]
        if c != 0:
            v = tuple(a - c * b for a, b in zip(v, row))
    return tuple(v)


def ref_label_ids(G: FiniteGroupoid):
    """(sources, targets, identities, inverses) of G's integer view, read
    off its label dicts."""
    index = {g: i for i, g in enumerate(G.morphisms)}
    oid = {x: i for i, x in enumerate(G.objects)}
    return ([oid[G.source[g]] for g in G.morphisms],
            [oid[G.target[g]] for g in G.morphisms],
            [index.get(G.identities.get(x), -1) for x in G.objects],
            [index.get(G.inverses.get(g), -1) for g in G.morphisms])


def ref_transformation_labels(A: FiniteGroupAction):
    """(morphisms, source, target, identities, inverses) of the
    transformation groupoid of A, from A's labelled table."""
    group, act = A.group, A.table
    mors = tuple((g, x) for g in group.elements for x in A.points)
    return (mors, {m: m[1] for m in mors}, {m: act[m] for m in mors},
            {x: (group.identity, x) for x in A.points},
            {m: (group.inv(m[0]), act[m]) for m in mors})


def ref_laws(G: FiniteGroupoid):
    """(identity law, inverse law): e o g = g = g o e and g o g^-1 = e =
    g^-1 o g for every morphism g, by label loops through `G.compose`; an
    identity or an inverse outside its hom-set fails its law."""
    d, r, e, inv = G.source, G.target, G.identities, G.inverses
    identity_law = all(d.get(e.get(x)) == x == r.get(e.get(x)) for x in G.objects) and all(
        G.compose(g, e[d[g]]) == g == G.compose(e[r[g]], g) for g in G.morphisms)
    inverse_law = all(
        d.get(inv.get(g)) == r[g] and r.get(inv.get(g)) == d[g]
        and G.compose(g, inv[g]) == e.get(r[g]) and G.compose(inv[g], g) == e.get(d[g])
        for g in G.morphisms)
    return identity_law, inverse_law


def ref_pullback_isomorphism_verify(G: FiniteGroupoid) -> PullbackReport:
    """Exhaustively verify G ~ pullback of its isotropy bundle.

    Phi(g) = (r(g), sigma(r(g)) o g o sigma(d(g))^{-1}, d(g)) and the inverse
    map is (x, h, y) -> sigma(x)^{-1} o h o sigma(y); both directions, the
    functor law, identities, and inverses are checked on every morphism.
    """
    theta, sigma = canonical_sections(G)
    P = ref_build_pullback(G)

    def phi(g):
        a = G.compose(sigma[G.target[g]], g)
        h = G.compose(a, G.inverses[sigma[G.source[g]]])
        return (G.target[g], h, G.source[g])

    def phi_inv(m):
        x, h, y = m
        return G.compose(G.inverses[sigma[x]], G.compose(h, sigma[y]))

    images = {g: phi(g) for g in G.morphisms}
    image_set = set(images.values())
    bijective = (
        len(image_set) == len(G.morphisms) and image_set == set(P.morphisms)
    )
    failure = ()
    for g, h in ref_composable_pairs(G):
        if images[G.compose(g, h)] != P.compose(images[g], images[h]):
            failure = ("functor", g, h)
            break
    functorial = not failure
    identity_law, inverse_law = ref_laws(G)
    identities_match = identity_law and all(
        images[G.identities[x]] == P.identities[x] for x in G.objects
    )
    inverses_match = inverse_law and all(
        images[G.inverses[g]] == P.inverses[images[g]] for g in G.morphisms
    )
    round_trip = all(phi_inv(images[g]) == g for g in G.morphisms) and all(
        images[phi_inv(m)] == m for m in P.morphisms
    )
    ok = bijective and functorial and identities_match and inverses_match and round_trip
    return PullbackReport(
        ok,
        len(G.morphisms),
        len(P.morphisms),
        bijective,
        functorial,
        identities_match,
        inverses_match,
        round_trip,
        failure,
    )


def validate_group(G: FiniteGroup) -> None:
    """Exhaustive closure/associativity/identity/inverse check."""
    elems = set(G.elements)
    if G.identity not in elems:
        raise AxiomError("identity not an element", G.identity)
    for a in G.elements:
        if G.op(G.identity, a) != a or G.op(a, G.identity) != a:
            raise AxiomError("identity law fails", a)
        b = G.inv(a)
        if b not in elems or G.op(a, b) != G.identity or G.op(b, a) != G.identity:
            raise AxiomError("inverse law fails", a)
        for c in G.elements:
            if G.op(a, c) not in elems:
                raise AxiomError("not closed", (a, c))
    for a in G.elements:
        for b in G.elements:
            for c in G.elements:
                if G.op(G.op(a, b), c) != G.op(a, G.op(b, c)):
                    raise AxiomError("associativity fails", (a, b, c))


def is_abelian(G: FiniteGroup) -> bool:
    return all(
        G.op(a, b) == G.op(b, a)
        for a in G.elements
        for b in G.elements
    )


def ref_pid(P: PullbackIds, x: int, h: int, y: int) -> int:
    """The id of (x, h, y), or -1 when h is no loop at x's representative."""
    if P.loop_at[h] != P.rep[x]:
        return -1
    return P.base[x] + P.spot[y] * P.size[x] + P.slot[h]


def ref_square_pullback_verify(G: FiniteGroupoid) -> PullbackReport:
    """Exhaustively verify G ~ pullback of its isotropy bundle.

    Phi(g) = (r(g), sigma(r(g)) o g o sigma(d(g))^{-1}, d(g)) and the inverse
    map is (x, h, y) -> sigma(x)^{-1} o h o sigma(y); both directions, the
    functor law, identities, and inverses are checked on every morphism.

    The checks run on the integer view.  The products of all composable
    pairs are computed once into a table by `GroupoidIds.pair_products`,
    which raises validate's AxiomError at a product outside its hom-set,
    and Phi, the isotropy products and the inverse map read theirs from
    it; Phi(g) is held as the id of its middle arrow and its pullback id
    (-1 outside the pullback).  A second pass over the chunks checks the
    functor law Phi(g o h) = Phi(g) o Phi(h) as numpy index operations, g
    in input order, then h.  Once every product is a morphism in its
    hom-set the ids decide each check, and each reports the first item
    they flag: where identities and inverses lie in their hom-sets, the
    verdicts and witnesses are the label loops'.  (An inverse outside its
    hom-set sends some Phi(g) out of the pullback, which the checks flag;
    the label loops raised KeyError there.)
    """
    import numpy as np
    V = G.ids
    P = PullbackIds(V)
    if -1 in P.sigma:
        raise AxiomError("no morphism from object to its representative",
                         G.objects[P.sigma.index(-1)])
    table = V.pair_products()
    src, tgt, inv, sig = V.sources, V.targets, V.inverses, P.sigma
    m = len(G.morphisms)
    _, _, _, fan, start = V.pair_index
    found, at, pos = memoryview(table), start.tolist(), V.into[1]

    def products(g, h):
        """Products of id lists from the table, -1 for pairs that do not compose."""
        return [found[at[a] + pos[b]] if a >= 0 <= b and src[a] == tgt[b] else -1
                for a, b in zip(g, h)]

    # the isotropy products a o b, by rows a, and Phi's middle arrows
    # sigma(r g) o g o sigma(d g)^-1
    first = [a for ids in V.loops.values() for a in ids for _ in ids]
    second = [b for ids in V.loops.values() for _ in ids for b in ids]
    mid = products(products([sig[y] for y in tgt], range(m)), [inv[sig[x]] for x in src])
    image = [ref_pid(P, y, h, x) for y, h, x in zip(tgt, mid, src)]
    bijective = P.count == m and min(image, default=0) >= 0 and len(set(image)) == m
    # Phi(g) o Phi(h) has id base[r g] + spot[d h] size[r g] + slot[a o b], with
    # slot[a o b] = square[row[g] + col[h]]; `far` there stands for a Phi(g)
    # outside the pullback
    far = -(1 << 40)
    square = [P.slot[k] for k in products(first, second)] + [far] * (2 * len(first) + 2)
    rows = {}  # the first row of each loop a
    for k, h in enumerate(first):
        rows.setdefault(h, k)
    row = [rows[h] if i >= 0 else len(first) for i, h in zip(image, mid)]
    col = [P.slot[h] if i >= 0 else len(first) + 1 for i, h in zip(image, mid)]
    row, col, base, size, spot = np.array(
        [row, col, [P.base[y] for y in tgt], [P.size[y] for y in tgt], [P.spot[x] for x in src]],
        dtype=np.int64).reshape(5, m)
    ids, square = np.array(image, dtype=np.int64), np.array(square, dtype=np.int64)
    failure = ()
    for lo, hi in chunks(fan):
        g, h = V.pairs(lo, hi)
        gh = table[start[lo]:start[hi]]
        wrong = (ids[gh] != base[g] + spot[h] * size[g] + square[row[g] + col[h]]).nonzero()[0]
        if len(wrong):
            failure = ("functor", G.morphisms[g[wrong[0]]], G.morphisms[h[wrong[0]]])
            break

    e = V.identities
    identity_law, inverse_law = ref_laws(G)
    identities_match = identity_law and all(
        e[x] >= 0 <= image[e[x]] == ref_pid(P, x, e[P.rep[x]], x) for x in range(len(G.objects)))
    # the pullback's inverse of (x, h, y) is (y, h^-1, x)
    inverses_match = inverse_law and all(
        inv[g] >= 0 <= image[g] and image[inv[g]] == ref_pid(P, src[g], inv[mid[g]], tgt[g]) >= 0
        for g in range(m))
    back = products([inv[sig[y]] for y in tgt], products(mid, [sig[x] for x in src]))
    round_trip = back == list(range(m))
    if round_trip:
        target, middle, source = P.triples.tolist()
        back = products([inv[sig[x]] for x in target],
                        products(middle, [sig[y] for y in source]))
        round_trip = all(k >= 0 and image[k] == p for p, k in enumerate(back))
    ok = bijective and not failure and identities_match and inverses_match and round_trip
    return PullbackReport(
        ok,
        m,
        P.count,
        bijective,
        not failure,
        identities_match,
        inverses_match,
        round_trip,
        failure,
    )


def ref_action_make(group: FiniteGroup, points, act) -> FiniteGroupAction:
    """Build and validate the action table from a callable or a mapping."""
    points = tuple(points)
    fn = act if callable(act) else lambda g, x: act[(g, x)]
    table = {
        (g, x): fn(g, x) for g in group.elements for x in points
    }
    pointset = set(points)
    for (g, x), y in table.items():
        if y not in pointset:
            raise AxiomError("action leaves the point set", (g, x, y))
    for x in points:
        if table[(group.identity, x)] != x:
            raise AxiomError("identity moves a point", x)
    for g in group.elements:
        for h in group.elements:
            gh = group.op(g, h)
            for x in points:
                if table[(g, table[(h, x)])] != table[(gh, x)]:
                    raise AxiomError("action is not compatible", (g, h, x))
    index = {x: i for i, x in enumerate(points)}
    return FiniteGroupAction(group, points, [[index[table[(g, x)]] for x in points]
                                             for g in group.elements])


def ref_action_from_json(data: dict) -> FiniteGroupAction:
    """The action document path as it was: every entry through `_at`, into a
    (element, point) -> point mapping, then the full check of
    `ref_action_make`."""
    if data.get("kind") != "group_action":
        raise ValueError("not a group action document")
    group = groupoids.group_from_json(data["group"], len(data["table"]))
    points = [tuple(p) if isinstance(p, list) else p for p in data["points"]]
    if len(set(points)) != len(points):
        repeated = next(p for i, p in enumerate(points) if p in points[:i])
        raise ValueError(f"point {groupoids._element_to_json(repeated)!r} is listed twice")
    table = data["table"]
    if len(table) != group.order or any(len(row) != len(points) for row in table):
        raise AxiomError(groupoids._WRONG_SHAPE)
    lookup = {
        (g, points[xi]): groupoids._at(points, yi, "action table")
        for gi, g in enumerate(group.elements)
        for xi, yi in enumerate(table[gi])
    }
    return ref_action_make(group, points, lookup)


def _always_degenerate(L: LieAlgebra) -> bool:
    """B_xi is singular for every xi: odd dimension, or a nonzero center z
    (B_xi(z, .) = xi([z, .]) = 0)."""
    return L.dim % 2 == 1 or center_of(L).dim > 0


def ref_probe_census(L: LieAlgebra, samples: int = 512, seed: int = 0) -> ComponentCensus:
    return ref_probe_classes(L, samples, seed)[0]


def ref_probe_classes(L: LieAlgebra, samples: int = 512, seed: int = 0):
    """Census of connected components of the nondegenerate set.

    Integer points in [-10, 10]^dim, each with its negation, are kept when
    the Pfaffian of the skew form is nonzero, until `samples` are kept or
    40 * samples points are drawn; connections are established by exact
    segment probes only.  Probes can miss connections but never create false
    ones, so each class lies inside one component of the nondegenerate set.
    No point is drawn when every skew form is singular.

    Merges only extend earlier classes, so the first kept sample stays the
    first representative and witnesses an open orbit.  A census that keeps
    nothing proves nothing: by the Schwartz-Zippel bound a Pfaffian that is
    not identically zero, a polynomial of degree dim/2, vanishes at each
    draw with probability at most dim/42, so such misses decay geometrically
    in the number of draws.
    """
    if L.field != "Q":
        raise ValueError("the census works over the rational field; realify first")
    m = L.dim
    rng = random.Random(seed)
    exp_result = algebra_is_exponential(L)
    kept = []
    pf = {}  # kept integer sample -> _det_at value
    seen = set()
    attempts = 0
    budget = 0 if _always_degenerate(L) else 40 * samples
    while len(kept) < samples and attempts < budget:
        attempts += 1
        v = tuple(rng.randint(-10, 10) for _ in range(m))
        for w in (v, tuple(-x for x in v)):
            if w in seen or all(x == 0 for x in w):
                continue
            seen.add(w)
            p = _det_at(L, w)
            if p != 0:
                kept.append(w)
                pf[w] = p

    def joins(u, v):
        return _segment_nondegenerate(L, u, v, (pf[u], pf[v]))

    notes = [
        f"census from {len(kept)} nondegenerate integer samples;"
        " no class spans two components (probes are exact), but a missed"
        " connection can split one component into several classes"
    ]
    components: list[list] = []
    for s in kept:
        joined = False
        for comp in components:
            for member in dict.fromkeys(comp[:2] + comp[-2:]):
                if joins(s, member):
                    comp.append(s)
                    joined = True
                    break
            if joined:
                break
        if not joined:
            components.append([s])

    def merge_pass():
        nonlocal components
        changed = False
        i = 0
        while i < len(components):
            j = i + 1
            while j < len(components):
                hit = False
                for u in components[i][:6]:
                    for v in components[j][:6]:
                        if joins(u, v):
                            hit = True
                            break
                    if hit:
                        break
                if hit:
                    components[i].extend(components[j])
                    del components[j]
                    changed = True
                else:
                    j += 1
            i += 1
        return changed

    for _ in range(3):
        if not merge_pass():
            break

    reps = tuple(tuple(Fraction(x) for x in comp[0]) for comp in components)
    sizes = tuple(len(comp) for comp in components)
    index_of = {}
    for idx, comp in enumerate(components):
        for s in comp:
            index_of[s] = idx
    pairing = []
    for idx, rep in enumerate(reps):
        neg = tuple(-x for x in rep)
        pairing.append((idx, index_of.get(neg, -1)))
    even = (
        len(components) % 2 == 0
        and all(j != i and j != -1 for i, j in pairing)
    )
    return ComponentCensus(
        len(components),
        reps,
        sizes,
        tuple(pairing),
        even,
        exp_result.verdict and not exp_result.heuristic,
        exp_result.heuristic,
        len(kept),
        tuple(notes),
    ), kept, components


def ref_frobenius_test(L: LieAlgebra, trials: int = 64, seed: int = 0):
    """Probabilistic search for a nondegenerate functional.

    Samples integer points in [-10, 10]^dim; a nonzero Pfaffian of the skew
    form proves an open orbit exists.  After `trials` failures returns (False,
    None); by the Schwartz-Zippel bound a nonzero Pfaffian, a polynomial of
    degree dim/2, vanishes on at most a dim/42 fraction of each trial, so
    false negatives decay geometrically.  No point is drawn when every skew
    form is singular.
    """
    rng = random.Random(seed)
    if _always_degenerate(L):
        return False, None
    for _ in range(trials):
        xi = tuple(Fraction(rng.randint(-10, 10)) for _ in range(L.dim))
        if _det_at(L, xi) != 0:
            return True, xi
    return False, None


def ref_validate_groupoid(G: FiniteGroupoid) -> None:
    """Exhaustive axiom check; AxiomError carries a witness tuple.  More than
    TRIPLE_CAP composable triples are refused before any product is computed."""
    objs = set(G.objects)
    mors = set(G.morphisms)
    if len(objs) != len(G.objects) or len(mors) != len(G.morphisms):
        raise AxiomError("duplicate object or morphism labels")
    for g in G.morphisms:
        if G.source.get(g) not in objs or G.target.get(g) not in objs:
            raise AxiomError("source/target outside objects", g)
    for x in G.objects:
        e = G.identities.get(x)
        if e not in mors or G.source[e] != x or G.target[e] != x:
            raise AxiomError("bad identity", x)
    product, source, target, into = G.product, G.source, G.target, ref_into(G)
    # triples (g, h, k) through y = d(g): sum over h into y of |into(d(h))|
    fan = {y: sum(len(into[source[h]]) for h in hs) for y, hs in into.items()}
    triples = sum(fan[source[g]] for g in G.morphisms)
    if triples > groupoids.TRIPLE_CAP:
        raise ValueError(
            f"{triples} composable triples exceed the exhaustive-check cap of {groupoids.TRIPLE_CAP}"
        )
    for g, h in ref_composable_pairs(G):
        k = product(g, h)
        if k not in mors or source[k] != source[h] or target[k] != target[g]:
            raise AxiomError("composite has wrong endpoints", (g, h, k))
    for g in G.morphisms:
        e_d, e_r = G.identities[source[g]], G.identities[target[g]]
        if product(g, e_d) != g or product(e_r, g) != g:
            raise AxiomError("identity law fails", g)
        ginv = G.inverses.get(g)
        if ginv not in mors:
            raise AxiomError("missing inverse", g)
        if (
            (source[ginv], target[ginv]) != (target[g], source[g])
            or product(g, ginv) != e_r
            or product(ginv, g) != e_d
        ):
            raise AxiomError("inverse law fails", g)
    for g, h in ref_composable_pairs(G):
        gh = product(g, h)
        for k in into[source[h]]:
            if product(gh, k) != product(g, product(h, k)):
                raise AxiomError("associativity fails", (g, h, k))


def ref_group_by(items, key) -> dict:
    """key -> tuple of the items with that key, in input order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return {k: tuple(v) for k, v in groups.items()}


def ref_out_of(G: FiniteGroupoid) -> dict:
    return ref_group_by(G.morphisms, G.source.__getitem__)


def ref_into(G: FiniteGroupoid) -> dict:
    return ref_group_by(G.morphisms, G.target.__getitem__)


def ref_hom(G: FiniteGroupoid, x, y) -> tuple:
    return ref_group_by(G.morphisms, lambda g: (G.source[g], G.target[g])).get((x, y), ())


def ref_composable_pairs(G: FiniteGroupoid):
    into = ref_into(G)
    return [(g, h) for g in G.morphisms for h in into.get(G.source[g], ())]


def ref_classify(G: FiniteGroupoid) -> groupoids.Classification:
    rep = groupoids.orbits_isotropy(G)
    homs = ref_group_by(G.morphisms, lambda g: (G.source[g], G.target[g]))
    bundle = all(G.source[g] == G.target[g] for g in G.morphisms)
    transitive = len(rep.representatives) == 1
    pair = all(len(homs.get((x, y), ())) == 1 for x in G.objects for y in G.objects)
    principal = transitive and all(n == 1 for n in rep.isotropy_orders)
    return groupoids.Classification(bundle, transitive, pair, principal, len(rep.representatives))


def ref_build_pullback(G: FiniteGroupoid) -> FiniteGroupoid:
    """The pullback's morphisms (x, h, y), x in object order, then y in the
    orbit of x, then h in the isotropy at their representative, with the
    label product and no integer view of its own."""
    theta, _ = canonical_sections(G)
    orbit_of = ref_group_by(G.objects, theta.__getitem__)
    mors = tuple(
        (x, h, y)
        for x in G.objects
        for y in orbit_of[theta[x]]
        for h in ref_hom(G, theta[x], theta[x])
    )
    return FiniteGroupoid(
        G.objects,
        mors,
        {m: m[2] for m in mors},
        {m: m[0] for m in mors},
        lambda a, b: (a[0], G.product(a[1], b[1]), b[2]),
        {x: (x, G.identities[theta[x]], x) for x in G.objects},
        {(x, h, y): (y, G.inverses[h], x) for (x, h, y) in mors},
    )


def ref_is_ideal(L: LieAlgebra, s: Subspace) -> bool:
    for i in range(L.dim):
        for v in s.rows:
            if not s.contains(L.bracket(basis_vector(L, i), v)):
                return False
    return True


def ref_adapted_columns(L: LieAlgebra, flag: tuple):
    """Column j of F is the row f_j of g_j whose pivot is not a pivot of
    g_{j-1}, scaled to int tuples over Q and unchanged over Q(i)."""
    adapted = []
    for lower, upper in zip(flag, flag[1:]):
        old = set(lower.pivots)
        adapted.append(next(r for r, p in zip(upper.rows, upper.pivots) if p not in old))
    return zi_rows(adapted)[1] if L.field == "Q" else adapted


def ref_jump_indices(L: LieAlgebra, flag: tuple, xi, columns=None) -> tuple:
    """1-based flag steps not absorbed by the isotropy of xi: the pivot
    columns of B_xi F, with the skew-form rank as cross-check."""
    if columns is None:
        columns = ref_adapted_columns(L, flag)
    if L.field == "Q":
        b, eliminate = integer_bform(L, xi), rref_int
    else:
        b, eliminate = ref_bform(L, xi).data, ref_rref
    # both eliminations return the pivot columns last
    pivots = eliminate([[sum(x * y for x, y in zip(row, f)) for f in columns] for row in b])[-1]
    if len(pivots) != len(eliminate(b)[-1]):
        raise AssertionError("jump count disagrees with the skew-form rank")
    return tuple(p + 1 for p in pivots)


def ref_sample_points(dim, extra_samples, seed):
    grid_size = (2 * GRID_RADIUS + 1) ** dim
    if grid_size <= 4000:
        pts = [
            tuple(Fraction(v) for v in p)
            for p in itertools.product(range(-GRID_RADIUS, GRID_RADIUS + 1), repeat=dim)
        ]
        return pts, True
    rng = random.Random(seed)
    pts, seen = [], set()
    while len(pts) < extra_samples:
        p = tuple(Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)) for _ in range(dim))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts, False


def ref_coadjoint_stratification(
    L: LieAlgebra, samples: int = 400, seed: int = 0
) -> CoadjointStratification:
    """Group sample functionals by jump set and identify the generic stratum.

    When the integer grid is small enough it is enumerated exhaustively and
    the generic set is cross-checked against the index-order minimum; any
    disagreement is a hard error rather than a silent repair.
    """
    flag = jordan_holder_flag(L)
    columns = ref_adapted_columns(L, flag)
    pts, exhaustive = ref_sample_points(L.dim, samples, seed)
    buckets: dict = {}
    for p in pts:
        js = ref_jump_indices(L, flag, p, columns)
        if js not in buckets:
            buckets[js] = [0, p]
        buckets[js][0] += 1
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
# module orbit layers, as `strata` ran them


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


# on the 400 cases of test_minus_one_probe.py, at 50 digits, a true hit
# leaves |exp(t mu) + 1| below 2e-48, Jordan blocks included, and every
# other grid point keeps it above 3e-9 (the near misses)
MINUS_ONE_GAP = mpmath.mpf(10) ** -12


def ref_minus_one_probe(L: LieAlgebra, seed: int = 0) -> MinusOneProbe:
    """Scan exp(t ad x) for an eigenvalue -1 over the probe's directions and
    its grid t = k/8, (k/8)pi for k = 1..24, by the eigenvalues of ad(x)."""
    m = L.dim
    rng = random.Random(seed)
    directions = [
        tuple(Fraction(1 if j == i else 0) for j in range(m)) for i in range(m)
    ]
    for _ in range(5):
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
        if any(x != 0 for x in v):
            directions.append(v)
    with mpmath.workdps(50):
        for x in directions:
            mus = eigenvalues_50(ad_matrix(L, x))
            for k in range(1, 25):
                for t, label in ((mpmath.mpf(k) / 8, f"{k}/8"),
                                 (k * mpmath.pi / 8, f"({k}/8)pi")):
                    if any(abs(mpmath.exp(t * mu) + 1) < MINUS_ONE_GAP for mu in mus):
                        return MinusOneProbe(True, x, label, Fraction(-1))
    return MinusOneProbe(False, None, None, None)


def eigenvalues_50(a: Matrix) -> tuple:
    """The eigenvalues of an exact matrix by `mpmath.eig` at 50 digits."""
    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator
    with mpmath.workdps(50):
        rows = [[mp(scalar_re(c)) + 1j * mp(scalar_im(c)) for c in row] for row in a.data]
        return tuple(mpmath.eig(mpmath.matrix(rows), left=False, right=False))
