"""The screened -1 probe against the unscreened scan it replaced.

`minus_one_probe` takes a Taylor exponential only at the grid values t that
the eigenvalues mu of ad(x) keep; `ref_minus_one_probe` exponentiates at
every t.  Both run at seeds 0-3 on the catalog, the corpus and seeded
unimodular conjugates of the catalog, and the pair runs on 300 seeded
semidirect algebras R x_A Q^n (n = 2..6, [Y0, v] = A v on the abelian ideal)
from four families of A: random integer matrices; rotation blocks whose
eigenvalues +-iy with y = 8(2j+1)/k hit -1 on the grid t = (k/8)pi; real
Jordan blocks around +-iy and nilpotent Jordan blocks at 0; and rotation
blocks within 10^-5..10^-9 of a hit.  Where the two probes agree nothing
more is checked.  Where they differ, the eigenvalues of ad(x) to 50 digits
(`mpmath.eig`) must refute the reference's hit, min |exp(t mu) + 1| > tol at
the exact t, and must not refute a hit of the screened probe.
"""
import json
import random
from fractions import Fraction as Q
from pathlib import Path

import mpmath

from dense_reference import DENSE_CATALOG, ref_conjugate, ref_minus_one_probe, upper
from liegrpd.catalog import LIE_CATALOG
from liegrpd.coadjoint import minus_one_probe
from liegrpd.exact import scalar_im, scalar_re
from liegrpd.lie import ad_matrix, algebra_from_json, from_brackets

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEEDS = range(4)
SEMIDIRECT_COUNT = 300

# ad Y1 has the real eigenvalues (-3 +- sqrt 37)/2, so the algebra is
# exponential; the unscreened scan reports exp((21/8)pi ad(-1, 2, 2)) as a
# -1 witness at seed 3, where the exponential's norm is about 4e16
FALSE_WITNESS = {"dim": 3, "field": "Q", "brackets": [
    {"i": 0, "j": 1, "coeffs": {"1": "-1", "2": "-3"}},
    {"i": 0, "j": 2, "coeffs": {"1": "-3", "2": "-2"}}]}


def semidirect(a):
    """R x_A Q^n: [Y0, Y_{j+1}] = sum_k A[k][j] Y_{k+1}, the ideal abelian."""
    n = len(a)
    brackets = {(0, j + 1): {k + 1: a[k][j] for k in range(n) if a[k][j]} for j in range(n)}
    return from_brackets(n + 1, {key: c for key, c in brackets.items() if c})


def rotation(y):
    return [[Q(0), -y], [y, Q(0)]]


def jordan_rotation(y):
    """The real Jordan block of size 4 for the eigenvalues +-iy."""
    r = rotation(y)
    return [r[0] + [Q(1), Q(0)], r[1] + [Q(0), Q(1)],
            [Q(0)] * 2 + r[0], [Q(0)] * 2 + r[1]]


def nilpotent_jordan(k):
    return [[Q(int(c == r + 1)) for c in range(k)] for r in range(k)]


def hit(rng):
    """y = 8(2j+1)/k: exp((k/8)pi * iy) = -1."""
    return Q(8 * (2 * rng.randint(0, 2) + 1), rng.randint(1, 24))


def block_triangular(blocks, rng):
    """The blocks on the diagonal, small random integers above them: the
    spectrum is the union of the blocks' spectra."""
    n = sum(len(b) for b in blocks)
    a = [[Q(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for r, row in enumerate(b):
            a[off + r][off:off + len(b)] = row
            for c in range(off + len(b), n):
                a[off + r][c] = Q(rng.choice((0, 0, 1, -1)))
        off += len(b)
    return a


def _random_integer(rng):
    n = rng.randint(2, 6)
    return [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]


def _rotation_hits(rng):
    blocks, room = [rotation(hit(rng))], rng.randint(0, 4)
    while room:
        blocks.append(rotation(hit(rng)) if room > 1 and rng.random() < 0.5
                      else [[Q(rng.randint(-2, 2))]])
        room -= len(blocks[-1])
    return block_triangular(blocks, rng)


def _jordan(rng):
    y = hit(rng) if rng.random() < 0.5 else Q(rng.randint(1, 9), rng.randint(1, 4))
    first = rng.choice([jordan_rotation(y), nilpotent_jordan(rng.randint(2, 3))])
    second = rng.choice([rotation(y), nilpotent_jordan(2), [[Q(0)]], []])
    return block_triangular([first, second], rng)


def _near_miss(rng):
    y = hit(rng) * (1 + Q(rng.choice((1, -1)), 10 ** rng.randint(5, 9)))
    blocks = [rotation(y)]
    if rng.random() < 0.5:
        blocks.append(rng.choice([[[Q(rng.randint(-2, 2))]], rotation(hit(rng))]))
    return block_triangular(blocks, rng)


FAMILIES = (_random_integer, _rotation_hits, _jordan, _near_miss)


def cases():
    """(name, algebra, seed, tol) for every probe run."""
    algebras = {name: make() for name, make in LIE_CATALOG.items()}
    for path in sorted(CORPUS.glob("*.json")):
        doc = json.loads(path.read_text())
        if "dim" in doc:
            algebras[f"corpus/{path.stem}"] = algebra_from_json(doc)
    for name, (t, _, field) in DENSE_CATALOG.items():
        if field == "Q":
            for seed in range(2):
                tc = ref_conjugate(t, seed)
                algebras[f"{name}~{seed}"] = from_brackets(len(tc), upper(tc))
    algebras["false_witness"] = algebra_from_json(FALSE_WITNESS)
    out = [(name, L, seed, 1e-9) for name, L in algebras.items() for seed in SEEDS]
    rng = random.Random(2022)
    for i in range(SEMIDIRECT_COUNT):
        family = FAMILIES[i % len(FAMILIES)]
        a = family(rng)
        assert 2 <= len(a) <= 6
        out.append((f"{family.__name__}#{i}", semidirect(a), (i // 4) % 4,
                    (1e-6, 1e-9)[(i // 16) % 2]))
    return out


def exact_gap(L, probe):
    """min |exp(t mu) + 1| over the eigenvalues mu of ad(x) at the probe's
    direction x, to 50 digits, at the exact t its label names."""
    with mpmath.workdps(50):
        a = mpmath.matrix([[_mp(scalar_re(c)) + 1j * _mp(scalar_im(c)) for c in row]
                           for row in ad_matrix(L, probe.direction).data])
        k = int(probe.t_label.strip("(").split("/")[0])
        t = k * mpmath.pi / 8 if probe.t_label.endswith("pi") else mpmath.mpf(k) / 8
        return min(abs(mpmath.exp(t * mu) + 1) for mu in mpmath.eig(a, left=False, right=False))


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def test_screened_probe_agrees_or_refutes_the_unscreened_hit():
    differ = []
    for name, L, seed, tol in cases():
        new = minus_one_probe(L, seed=seed, tol=tol)
        old = ref_minus_one_probe(L, seed=seed, tol=tol)
        if new == old:
            continue
        differ.append(name)
        assert old.found, name  # the screen only skips exponentials
        assert exact_gap(L, old) > tol, f"{name}: a true hit was screened out"
        if new.found:
            assert exact_gap(L, new) <= tol, f"{name}: the screened probe's hit is refuted"
    assert "false_witness" in differ
