"""Exact linear algebra over the rationals and Gaussian rationals.

Scalars are `Fraction` for real values and `GaussianRational` for values with
a nonzero imaginary part; arithmetic never silently demotes to float.  Exact
rows enter the integer side through `zi_rows`, which scales them to integer or
Gaussian-integer (`GaussInt`) entries and raises TypeError on a float.  A
`Matrix` stores such rows N over one positive integer denominator s, in
lowest terms; its `Fraction` rows are rebuilt only for reports.  Pfaffians,
interpolation and Sturm counts work on plain integers.  One elimination,
`rref_int`, serves every echelon form, rank and kernel, over the integers or
the Gaussian integers; the characteristic polynomials and root searches work
on them too, with no budget: `least_gaussian_root` bisects real parts by
Routh-Hurwitz counts and `imaginary_integer_roots` bisects a Sturm chain,
both read off one signed remainder chain.
`Matrix.to_numpy`, the float weight fallback's one bridge to floats, imports
numpy when first called, so the exact side never loads it.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union


class NumericError(ArithmeticError):
    """A floating-point routine failed its convergence or residual contract."""


# ---------------------------------------------------------------------------
# scalars


@dataclass(frozen=True)
class GaussianRational:
    """A Gaussian rational with nonzero imaginary part.

    Real values are represented by plain `Fraction`; the `gaussian` factory
    collapses to `Fraction` whenever the imaginary part vanishes, so equality
    and hashing stay consistent across the two representations.
    """

    re: Fraction
    im: Fraction

    def __post_init__(self):
        if self.im == 0:
            raise ValueError("real values must be Fraction, use gaussian()")

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return gaussian(self.re + parts[0], self.im + parts[1])

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return gaussian(self.re - parts[0], self.im - parts[1])

    def __rsub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return gaussian(parts[0] - self.re, parts[1] - self.im)

    def __mul__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, parts[0], parts[1]
        return gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        c, d = parts
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero")
        a, b = self.re, self.im
        return gaussian((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        a, b, c, d = parts[0], parts[1], self.re, self.im
        n = c * c + d * d
        return gaussian((a * c + b * d) / n, (b * c - a * d) / n)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


Scalar = Union[int, Fraction, GaussianRational]


def gaussian(re, im=0) -> Scalar:
    """Build a Gaussian rational, collapsing to `Fraction` when real."""
    re, im = Fraction(re), Fraction(im)
    return GaussianRational(re, im) if im else re


def _parts(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return None


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, GaussianRational))


def scalar_re(x) -> Fraction:
    return x.re if isinstance(x, GaussianRational) else Fraction(x)


def scalar_im(x) -> Fraction:
    return x.im if isinstance(x, GaussianRational) else Fraction(0)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q", "p/q+r/s i", "i", "-3i", "1/2-3/4i" into an exact scalar.

    Exponent notation is rejected: "1e1000000" would build a huge integer
    before any size check could run.
    """
    if not isinstance(text, str):
        raise TypeError(f"scalar must be a string, got {type(text).__name__}")
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    if "e" in s.lower():
        raise ValueError(f"exponent notation in scalar {text!r}")
    if not s.endswith("i") and not s.endswith("I"):
        return _rational(s)
    body = s[:-1]
    # split off the trailing imaginary term at the last sign not inside
    # an exponent-free rational; scan from the right for +/- at depth 0
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/":
            re_part, im_part = body[:pos], body[pos:]
            break
    else:
        re_part, im_part = "", body
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = _rational(im_part)
    re = _rational(re_part) if re_part else Fraction(0)
    return gaussian(re, im)


def document_int(value, what: str) -> int:
    """An integer field of a JSON document; floats, booleans and strings are
    refused with a ValueError naming the field."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def format_scalar(x: Scalar) -> str:
    """Serialize an exact scalar as "p/q" or "p/q+r/si"."""
    re, im = scalar_re(x), scalar_im(x)
    if im == 0:
        return str(re)
    sign = "+" if im >= 0 else "-"
    return f"{re}{sign}{abs(im)}i"


# ---------------------------------------------------------------------------
# Gaussian integers


class GaussInt:
    """A Gaussian integer with nonzero imaginary part.

    Real values are plain `int`; `zi` collapses to `int` whenever the
    imaginary part vanishes, as `gaussian` does for `Fraction`.  The type has
    just what the integer eliminations need: `+`, `-`, `*`, exact `//` and
    truth (always true, since the value is nonzero), mixed freely with `int`.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re, self.im = re, im

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def __add__(self, other):
        if type(other) is int:
            return GaussInt(self.re + other, self.im)
        return zi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __sub__(self, other):
        if type(other) is int:
            return GaussInt(self.re - other, self.im)
        return zi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussInt(other - self.re, -self.im)

    def __mul__(self, other):
        a, b = self.re, self.im
        if type(other) is int:
            return GaussInt(a * other, b * other) if other else 0
        c, d = other.re, other.im
        return zi(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """Exact division; the quotient of a non-multiple is meaningless."""
        a, b = self.re, self.im
        if type(other) is int:
            return zi(a // other, b // other)
        c, d = other.re, other.im
        n = c * c + d * d
        return zi((a * c + b * d) // n, (b * c - a * d) // n)

    def __rfloordiv__(self, other):
        c, d = self.re, self.im
        n = c * c + d * d
        return zi(other * c // n, -other * d // n)

    def __eq__(self, other):
        return type(other) is GaussInt and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


def zi(re: int, im: int = 0):
    """The Gaussian integer re + im i: an `int` when im is 0, else a `GaussInt`."""
    return GaussInt(re, im) if im else re


def zi_parts(x) -> tuple:
    """(re, im) of an int or GaussInt."""
    return (x.re, x.im) if type(x) is GaussInt else (x, 0)


def zi_content(values) -> int:
    """The gcd of the real and imaginary parts of Gaussian integers (0 when all vanish)."""
    return math.gcd(*(p for x in values for p in zi_parts(x)))


def zi_rows(rows):
    """(s, rows times s as int or GaussInt entries), s the least positive
    integer that clears every denominator of the exact rows; rows of int and
    GaussInt entries come back unchanged, with s = 1.  A float raises TypeError."""
    if all(type(x) is int or type(x) is GaussInt for row in rows for x in row):
        return 1, rows
    parts = [[(x.re, x.im) if type(x) is GaussianRational or type(x) is GaussInt else (x, 0)
              for x in row] for row in rows]
    inexact = [x for row in parts for x, _ in row if not isinstance(x, (int, Fraction))]
    if inexact:
        raise TypeError(f"matrix entries must be exact, got {type(inexact[0]).__name__}")
    s = math.lcm(*(p.denominator for row in parts for pair in row for p in pair))
    return s, [[zi(a.numerator * (s // a.denominator), b.numerator * (s // b.denominator))
                for a, b in row] for row in parts]


# ---------------------------------------------------------------------------
# matrices


def zi_over(x, s: int) -> Scalar:
    """x / s as a `Fraction` or `GaussianRational`, for an int or GaussInt x
    and a positive integer s."""
    if type(x) is GaussInt:
        return gaussian(Fraction(x.re, s), Fraction(x.im, s))
    return Fraction(x, s)


def lowest_terms(rows, s: int):
    """(rows, s) divided by their common content: the same matrix rows / s,
    of int or GaussInt entries over a positive integer s, in lowest terms."""
    g = s
    for row in rows:
        g = zi_content([g, *row])
        if g == 1:
            return rows, s
    return [[x // g for x in row] for row in rows], s // g


class Matrix:
    """Immutable exact matrix N / s.

    `ints` holds N as rows of int or `GaussInt` entries and `denominator` the
    positive integer s, in lowest terms (no integer above 1 divides s and
    every entry of N), so equal matrices have equal fields.  The constructor
    takes exact entries (int, `Fraction`, `GaussianRational`, `GaussInt`) and
    refuses floats through `zi_rows`; `data` gives the entries back as
    `Fraction` and `GaussianRational` rows.
    """

    __slots__ = ("rows", "cols", "ints", "denominator")

    def __init__(self, rows_data: Iterable[Iterable]):
        s, ints = zi_rows([list(row) for row in rows_data])
        self._store(ints, s)

    @staticmethod
    def scaled(ints, denominator: int = 1) -> "Matrix":
        """The matrix ints / denominator, for rows of int or GaussInt entries
        and a positive integer denominator."""
        m = object.__new__(Matrix)
        m._store(*lowest_terms(ints, denominator))
        return m

    def _store(self, ints, denominator: int):
        ints = tuple(map(tuple, ints))
        if not ints or not ints[0]:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(ints[0]) for row in ints):
            raise ValueError("ragged rows")
        for name, value in zip(Matrix.__slots__, (len(ints), len(ints[0]), ints, denominator)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @property
    def data(self) -> tuple:
        return tuple(tuple(zi_over(x, self.denominator) for x in row) for row in self.ints)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.denominator == other.denominator
                and self.ints == other.ints)

    def __hash__(self):
        return hash((self.denominator, self.ints))

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.data]})"

    def __neg__(self):
        return Matrix.scaled([[-x for x in row] for row in self.ints], self.denominator)

    def transpose(self) -> "Matrix":
        return Matrix.scaled(list(zip(*self.ints)), self.denominator)

    def column(self, j: int) -> tuple:
        return tuple(zi_over(row[j], self.denominator) for row in self.ints)

    def to_numpy(self) -> np.ndarray:
        """Float (or complex) copy, each entry one exact int / int division;
        NumericError names an entry too large for a float."""
        import numpy as np
        s = self.denominator
        is_complex = any(type(x) is GaussInt for row in self.ints for x in row)
        out = np.empty((self.rows, self.cols), dtype=complex if is_complex else float)
        for i, row in enumerate(self.ints):
            for j, x in enumerate(row):
                re, im = zi_parts(x)
                try:
                    out[i, j] = complex(re / s, im / s) if is_complex else re / s
                except OverflowError:
                    raise NumericError(f"matrix entry ({i}, {j}) does not fit a float") from None
        return out


def common_denominator(mats) -> tuple:
    """(S, rows): the matrices over their least common denominator S, as the
    integer rows S times each."""
    s = math.lcm(*(m.denominator for m in mats))
    return s, [[[x * (s // m.denominator) for x in row] for row in m.ints] for m in mats]


# ---------------------------------------------------------------------------
# exact elimination


def rref_int(rows: Sequence[Sequence[int]]):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss).

    Returns (rows, d, pivots): the nonzero rows of d times the reduced
    row-echelon form as int lists, the common denominator d (the last pivot,
    of either sign; 1 without pivots) and the pivot columns.  With pivot p
    and previous pivot p_prev, every other row becomes
    (p row - row[c] pivot_row) / p_prev, also when row[c] is 0: each entry is
    then a minor of the input, so the division is exact and every pivot
    entry equals the current pivot.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots, prev, r = [], 1, 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
        r += 1
        if r == len(m):
            break
    return m[:r], prev, pivots


def positive_multiplier(d):
    """A unit or conjugate f with d * f a positive integer, for d != 0 in Z[i]."""
    return d.conjugate() if type(d) is GaussInt else (1 if d > 0 else -1)


def kernel_int(rows, n: int):
    """A kernel basis of n-column rows over Z or Z[i], as (vectors, free, e):
    vector k is the positive integer e at free[k] and 0 at the other free
    columns, which are the non-pivot columns of the echelon form."""
    red, d, pivots = rref_int(rows)
    f = positive_multiplier(d)
    free = [j for j in range(n) if j not in pivots]
    vecs = []
    for j in free:
        v = [0] * n
        v[j] = d * f
        for row, p in zip(red, pivots):
            if row[j]:
                v[p] = -row[j] * f
        vecs.append(v)
    return vecs, free, d * f


def pfaffian_int(rows: Sequence[Sequence[int]]) -> int:
    """Pfaffian of a skew-symmetric integer matrix; only the entries above the
    diagonal are read.

    Fraction-free elimination of two rows and columns per step.  With pivot
    p = a[k][k+1], every later entry becomes

        (p a[i][j] + a[k+1][i] a[k][j] - a[k][i] a[k+1][j]) / p_prev,

    the Pfaffian of the principal submatrix on the eliminated indices and
    {i, j}; the division by the previous pivot p_prev is therefore exact, and
    the last pivot is Pf.  A zero pivot is replaced by swapping index k+1 with
    a later index whose entry in row k is nonzero, which flips the sign; when
    row k has no such entry, Pf = 0.  About n^3/6 multiplications.
    """
    n = len(rows)
    if n % 2:
        return 0
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(0, n - 2, 2):
        rk = a[k]
        if rk[k + 1] == 0:
            s = next((j for j in range(k + 2, n) if rk[j] != 0), None)
            if s is None:
                return 0
            _swap_skew_index(a, k, k + 1, s)
            sign = -sign
        p, rk1 = rk[k + 1], a[k + 1]
        for i in range(k + 2, n):
            ri, x, y = a[i], rk1[i], rk[i]
            for j in range(i + 1, n):
                ri[j] = (p * ri[j] + x * rk[j] - y * rk1[j]) // prev
        prev = p
    return sign * a[n - 2][n - 1]


def _swap_skew_index(a, k: int, u: int, v: int) -> None:
    """Swap indices u and v of the skew block a[k:, k:], kept above the diagonal."""
    n = len(a)
    for r in range(k, n):
        for c in range(r + 1, n):
            a[c][r] = -a[r][c]
    a[u], a[v] = a[v], a[u]
    for r in range(k, n):
        row = a[r]
        row[u], row[v] = row[v], row[u]


# ---------------------------------------------------------------------------
# characteristic polynomial


def charpoly_int(a):
    """Monic characteristic polynomial [c0, ..., c_{n-1}, 1] of a square
    matrix over Z or Z[i], given as rows of int or GaussInt entries.

    Faddeev-LeVerrier: with B_1 = A, c_{n-k} = -tr(B_k) / k and
    B_{k+1} = A (B_k + c_{n-k} I).  The coefficients of an integral matrix
    are integral, so every division by k is exact.
    """
    n = len(a)
    out = [0] * n + [1]
    b = [list(row) for row in a]
    for k in range(1, n + 1):
        c = -sum(b[i][i] for i in range(n)) // k
        out[n - k] = c
        if k < n:
            for i in range(n):
                b[i][i] += c
            b = matmul_int(a, b)
    return out


def matmul_int(a, b) -> list:
    """The product of two matrices given as rows of int or GaussInt entries,
    each row a combination of the rows of b (sparse rows of a cost less)."""
    out = []
    for row in a:
        w = [0] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                w = [s + x * y for s, y in zip(w, b_row)]
        out.append(w)
    return out


def poly_eval(coeffs: Sequence[Scalar], x: Scalar) -> Scalar:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# univariate integer polynomials: interpolation, Sturm counts and roots


def newton_interpolate(values) -> list:
    """h! q, q the polynomial of degree <= h through (k, values[k]), k = 0..h.

    Newton's forward form q(t) = sum_k D^k q(0) C(t, k) has integer forward
    differences D^k q(0) for integer values, and h! C(t, k) is the integer
    polynomial (h!/k!) t (t - 1) ... (t - k + 1), so h! q is integral.
    """
    h = len(values) - 1
    out = [0] * (h + 1)
    diffs, falling, scale = list(values), [1], math.factorial(h)
    for k in range(h + 1):
        c = diffs[0] * scale
        for i, f in enumerate(falling):
            out[i] += c * f
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        falling = [0] + falling  # times (t - k)
        for i in range(k + 1):
            falling[i] -= k * falling[i + 1]
        scale //= k + 1
    return out


def _trim(p) -> list:
    """The integer polynomial p without its zero leading coefficients ([0] for 0)."""
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _pdivide(a, b) -> tuple:
    """(q, r) with lc(b)^(deg a - deg b + 1) a = q b + r, deg r < deg b, b != 0."""
    a, lead, db, q = list(a), b[-1], len(b) - 1, []
    for k in range(len(a) - len(b), -1, -1):
        c = a.pop()
        a = [lead * x for x in a]
        for i in range(db):
            a[k + i] -= c * b[i]
        q = [c] + [lead * x for x in q]
    return q, _trim(a)


def _remainder_chain(f0, f1) -> list:
    """The signed remainder chain f0, f1, -rem(f0, f1), ..., c gcd(f0, f1) of
    integer polynomials, f0 trimmed and nonzero; just [f0] when f1 is 0.

    Each next element -rem(s, t) is the pseudo-remainder lc(t)^e s mod t,
    e = max(deg s - deg t + 1, 0), negated unless lc(t)^e is negative and
    divided by its positive content: a positive multiple of the rational
    chain's element, so every sign agrees.
    """
    chain, t = [f0], _trim(f1)
    while any(t):
        s = chain[-1]
        chain.append(t)
        rem = _pdivide(s, t)[1]
        g = math.gcd(*rem) or 1
        if t[-1] > 0 or len(s) < len(t) or (len(s) - len(t)) % 2:
            g = -g
        t = [x // g for x in rem]
    return chain


def _sturm_chain(p) -> list:
    """The Sturm chain p, p', ..., c gcd(p, p') of a trimmed integer polynomial."""
    return _remainder_chain(p, [i * c for i, c in enumerate(p)][1:])


def _variations(chain, x: int) -> int:
    """Sign changes along the chain's values at x, zeros skipped."""
    signs = [v > 0 for v in (poly_eval(q, x) for q in chain) if v]
    return sum(u != w for u, w in zip(signs, signs[1:]))


def _cauchy_index(chain) -> int:
    """The Cauchy index of chain[1] / chain[0] over the reals, for their
    remainder chain: its sign changes at -infinity less those at +infinity,
    read off the leading coefficients and the degrees."""
    plus = [q[-1] > 0 for q in chain]
    minus = [s != (len(q) % 2 == 0) for s, q in zip(plus, chain)]
    return sum(map(operator.ne, minus, minus[1:])) - sum(map(operator.ne, plus, plus[1:]))


def sturm_root_count(p, a: int, b: int) -> int:
    """Number of distinct real roots of the integer polynomial p in (a, b]."""
    chain = _sturm_chain(_trim(p))
    return _variations(chain, a) - _variations(chain, b)


_UNITS = (1, GaussInt(0, 1), -1, GaussInt(0, -1))  # i^k


def _axis_parts(p, turn: int) -> tuple:
    """The trimmed integer polynomials r, m with i^turn p(iy) = r(y) + i m(y),
    for p over Z or Z[i]."""
    r, m = zip(*(zi_parts(c * _UNITS[(k + turn) % 4]) for k, c in enumerate(p)))
    return _trim(r), _trim(m)


def imaginary_integer_roots(p) -> list:
    """The nonzero integers w with p(iw) = 0, ascending, for a nonzero
    polynomial p over Z or Z[i] (lowest degree first).

    Write p(iw) = r(w) + i m(w) over Z; the w are roots of g = gcd(r, m),
    made squarefree and freed of zero roots, so they divide g(0).  Halving
    (-|g(0)| - 1, |g(0)|] where g's Sturm count is positive leaves unit
    intervals (w - 1, w]; p(iw) = 0 confirms each w.  No budget: about
    log2 |g(0)| chain evaluations per real root of g.
    """
    g = _remainder_chain(*_axis_parts(p, 0))[-1]
    while g[0] == 0:
        g = g[1:]
    chain = _sturm_chain(g)
    if len(chain[-1]) > 1:
        g = _pdivide(g, chain[-1])[0]
        chain = _sturm_chain(g)
    n = abs(g[0])
    found, stack = [], [(-n - 1, n, _variations(chain, -n - 1), _variations(chain, n))]
    while stack:
        a, b, va, vb = stack.pop()
        if va > vb and b - a == 1 and poly_eval(p, zi(0, b)) == 0:
            found.append(b)
        elif va > vb and b - a > 1:
            mid = (a + b) // 2
            vm = _variations(chain, mid)
            stack += [(a, mid, va, vm), (mid, b, vm, vb)]
    return sorted(found)


def _taylor_shift(p, c: int) -> list:
    """p(t + c), lowest degree first, by repeated synthetic division."""
    p = list(p)
    for i in range(len(p) - 1):
        for k in range(len(p) - 2, i - 1, -1):
            p[k] += c * p[k + 1]
    return p


def _count_right(q, c: int) -> int:
    """The number of roots u with Re u > c, with multiplicity, of a monic
    polynomial q over Z or Z[i] with no root on the line Re u = c.

    f(s) = q(s + c) has degree n; write i^-n f(iy) = P(y) + i Q(y), P monic
    of degree n.  As y runs over the reals the argument of f(iy) turns by
    pi (left - right), and its tangent Q/P passes each pole from +infinity
    to -infinity as the argument rises, so right - left is the Cauchy index
    of Q/P (the Routh-Hurwitz count).
    """
    f = _taylor_shift(q, c)
    n = len(f) - 1
    return (n + _cauchy_index(_remainder_chain(*_axis_parts(f, -n)))) // 2


def least_gaussian_root(p):
    """The least root by (re, im) of a monic polynomial p over Z or Z[i]
    (lowest degree first) when p splits over Z[i]; None, or some
    Gaussian-integer root, when it does not.

    A root of a monic p in Q(i) is a Gaussian integer.  Zero roots are split
    off, and what is left of degree 1 or 2 is solved in closed form (a
    square root of the discriminant lies in Z[i]).  Above that, the roots
    of a split p have integer real parts, so q(u) = 2^n p(u/2) has no root
    on an odd line Re u = 2m + 1.  Bisecting m with `_count_right` finds the
    least m with a root of p left of Re t = m + 1/2, and the least root on
    the line Re t = m comes from `imaginary_integer_roots(p(t + m))`.  No
    budget: about 2 log2 |m| counts, each one remainder chain; beyond the
    roots every count is exact, so the search ends also when p does not split.
    """
    zeros = next(k for k, x in enumerate(p) if x)
    c = p[zeros:]
    n = len(c) - 1
    if n == 0:
        return 0
    if n == 1:
        roots = [-c[0]]
    elif n == 2:
        r = _zi_sqrt(c[1] * c[1] - 4 * c[0])
        roots = [] if r is None else [(r - c[1]) // 2, (-r - c[1]) // 2]
    else:
        q = [x * 2 ** (n - k) for k, x in enumerate(c)]

        def left(m):  # p has a root t with Re t < m + 1/2
            return _count_right(q, 2 * m + 1) < n

        lo, hi = -1, 0  # gallop out to not left(lo) and left(hi), then halve
        while left(lo):
            lo, hi = 2 * lo, lo
        while not left(hi):
            lo, hi = hi, 2 * hi + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if left(mid) else (mid, hi)
        f = _taylor_shift(c, hi)
        ws = imaginary_integer_roots(f) + [0] * (f[0] == 0)
        roots = [zi(hi, min(ws))] if ws else []
    return min(roots + [0] * bool(zeros), key=zi_parts) if roots else None


def _zi_sqrt(x):
    """A square root of a Gaussian integer in Z[i], or None when it has none:
    (a + b i)^2 = x + y i with a^2 = (x + m) / 2, b^2 = (m - x) / 2 for
    m = |x + y i| and ab of the sign of y."""
    x, y = zi_parts(x)
    m = math.isqrt(x * x + y * y)
    if m * m != x * x + y * y or (x + m) % 2:
        return None
    a, b = math.isqrt((x + m) // 2), math.isqrt((m - x) // 2)
    if a * a != (x + m) // 2 or b * b != (m - x) // 2:
        return None
    return zi(a, b if y >= 0 else -b)
