"""The exact -1 probe against a 50-digit spectral-mapping oracle.

`minus_one_probe` decides each grid point from the integer characteristic
polynomial of ad(x); `ref_minus_one_probe` takes the eigenvalues mu of ad(x)
to 50 digits (`mpmath.eig`) and scans exp(t mu) in the probe's order.  The
cases are the catalog, the corpus, seeded unimodular conjugates of the
catalog and `FALSE_WITNESS`, each at seeds 0-3, and 300 seeded semidirect
algebras R x_A Q^n (n = 2..6, [Y0, v] = A v on the abelian ideal) from four
families of A: random integer matrices; rotation blocks whose eigenvalues
+-iy with y = 8(2j+1)/k hit -1 on the grid t = (k/8)pi; real Jordan blocks
around +-iy and nilpotent Jordan blocks at 0; and rotation blocks within
10^-5..10^-9 of a hit.  On every case the probe's (found, direction, t) is
the oracle's.
"""
import json
import random
from fractions import Fraction as Q
from pathlib import Path

from dense_reference import DENSE_CATALOG, ref_conjugate, ref_minus_one_probe, upper
from liegrpd.cli import main
from liegrpd.catalog import LIE_CATALOG
from liegrpd.coadjoint import minus_one_probe
from liegrpd.lie import algebra_from_json, algebra_to_json, from_brackets

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEEDS = range(4)
SEMIDIRECT_COUNT = 300

# ad Y1 has the real eigenvalues (-3 +- sqrt 37)/2, so the algebra is
# exponential; a float scan by Taylor exponentials once reported
# exp((21/8)pi ad(-1, 2, 2)) as a -1 witness at seed 3, where the
# exponential's norm is about 4e16
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
    """(name, algebra, seed) for every probe run."""
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
    out = [(name, L, seed) for name, L in algebras.items() for seed in SEEDS]
    rng = random.Random(2022)
    for i in range(SEMIDIRECT_COUNT):
        family = FAMILIES[i % len(FAMILIES)]
        a = family(rng)
        assert 2 <= len(a) <= 6
        out.append((f"{family.__name__}#{i}", semidirect(a), (i // 4) % 4))
    return out


def _verdict(probe):
    return probe.found, probe.direction, probe.t_label


def test_probe_equals_the_spectral_oracle():
    all_cases = cases()
    assert len(all_cases) == 400
    differ = [name for name, L, seed in all_cases
              if _verdict(minus_one_probe(L, seed=seed))
              != _verdict(ref_minus_one_probe(L, seed=seed))]
    assert differ == []


def test_a_hit_on_a_jordan_block(tmp_path):
    # ad Y1 has the eigenvalue 4i/3 in a Jordan block of size 3, so
    # exp((6/8)pi ad Y1) has the eigenvalue -1; a float scan by Taylor
    # exponentials found it 7e-9 from -1, outside its tolerance of 1e-9, and
    # reported (18/8)pi
    name, L, seed = next(case for case in cases() if case[0] == "_jordan#218")
    assert seed == 2
    assert _verdict(ref_minus_one_probe(L, seed=seed))[2] == "(6/8)pi"
    doc, out = tmp_path / "jordan.json", tmp_path / "report.json"
    doc.write_text(json.dumps(algebra_to_json(L)))
    argv = ["lie", "probe-minus-one", "--in", str(doc), "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert (report["found"], report["t"], report["eigenvalue"]) == (True, "(6/8)pi", "-1")
    assert report["direction"] == ["1"] + ["0"] * 6
