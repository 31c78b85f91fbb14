#!/usr/bin/env python3
"""Print a digest of the CLI's output over a fixed ladder of runs.

Each run calls `liegrpd.cli.main` in process and prints one line: the argv,
the exit code and the sha256 of stdout followed by stderr.  The ladder is
every `lie` subcommand in JSON and text on the catalog and corpus algebras
(`coadjoint` at the integer points (1, ..., 1) and (1, 2, ..., n), and on the
catalog Q-algebras also at (1/2, -2/3, 3/4, ...), whose skew form has
denominators and both signs; `census` and `stratify` at
`--samples 48 --seed 1`), `cascade --table` and `cascade --family F --rank r`
for every system of the rank-8 table (JSON and text), the table and the
rank-24 A, B, C and D systems at the cascade's rank limit (JSON), two requests
beyond that limit, and every `grpd` subcommand on the catalog and corpus
groupoids.  A second ladder runs `roots`, `exptest` and `census` (JSON and
text) on (ax+b)^2, (ax+b)^3 and the dimension-8 sum realified_borel +
axb_semidirect_plane.  A third runs `stratify` (JSON and text, `--samples 48
--seed 1`) on a fixed unimodular conjugate of filiform4, on heisenberg +
filiform4, on a Q(i) algebra, on filiform4 rescaled to rational structure
constants, on a 5-dim filiform algebra (its whole 3,125-point grid) and on a
nilpotent Q(i) algebra whose constants have imaginary parts and
denominators; it also runs `validate`, `series` and `coadjoint` at
(1/2+i, 2, -3i, 1) (JSON and text) on that Q(i) algebra, then `roots`,
`exptest` and `probe-minus-one` (JSON), which read its ad(x) matrices over
the Gaussian integers with a denominator, and `grpd regrep --object 0` on
the natural S4 action.  A fourth runs `grpd
validate` (JSON and text) on two invalid action documents, C4 acting on 3
points by x -> x + g mod 3 and natural S4 with its last row repeated in
place of the one before, and
`grpd pullback-verify` and `grpd decompose` on the natural S5 action.  A
fifth runs `census` (JSON) at `--samples 1` and `--samples 2` on the catalog
Q-algebras and (ax+b)^2, where the open-orbit witness comes from the
fewest samples, and `coadjoint` on complex_borel at the Gaussian point
(1+i, 2-3i).  A sixth runs `roots` and `exptest` (JSON) where the weight
search meets Gaussian weights or reaches its weights only mid-search: on
e2 + axb, a fixed unimodular conjugate of realified_borel, the Q(i) sum
complex_borel + complex_borel, irrational_spectrum_algebra, which takes
the float path, and fixed unimodular conjugates of (e2 + axb)^2 and
(ax+b)^4, whose weights the search finds in two layers; it also runs
`series` (JSON) on those two conjugates, whose derived and lower central
series bracket dense rows.  A seventh runs
every `grpd` subcommand (JSON and text) on the natural S4 and S5 actions
(S5 `validate` passes by Light's test on its generators), on S4 acting on
itself by conjugation (five orbits; `regrep` at the transposition (0 1)),
and on one explicit-table document of each family the groupoid benchmark
validates: a pair groupoid, a bundle of cyclic groups and
the transformation groupoid of a permutation-group action with a fixed
point.  An eighth runs `probe-minus-one` (JSON) at `--seed 1` and `--seed 2`
on every catalog algebra and on the second ladder's sums, whose random
directions change with the seed, and on two documents whose spectra floats
cannot hold: [Y1, Y2] = 10^399 Y2, and R x_A Q^3 with A the companion
matrix of (t - 10^7)(t - 1)(t - 2).  A ninth runs `roots` and `exptest`
(JSON) on that companion form and on its diagonal twin, ad(Y1) =
diag(10^7, 1, 2), whose weights the root search finds exactly.  The
documents of the second to ninth ladders are written by this script under fixed names in a temporary
directory.  Every path is relative
(corpus paths to the checkout, the written documents to that directory), so
two checkouts print comparable lines:

    PYTHONPATH=<checkout>/src python3 scripts/cli_digest.py > digest.txt

and `diff` two such files to see which reports changed.
"""
import contextlib
import hashlib
import io
import itertools
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

from liegrpd import catalog
from liegrpd.cli import main as cli_main
from liegrpd.groupoids import (
    FiniteGroup,
    FiniteGroupAction,
    group_bundle,
    groupoid_to_json,
    pair_groupoid,
    transformation_groupoid,
)
from liegrpd.lie import algebra_to_json, from_brackets
from liegrpd.rootsystems import cascade_classification

ROOT = Path(__file__).resolve().parent.parent
CORPUS_ALGEBRAS = ("axb", "complex_borel", "e2", "filiform4", "heisenberg")
CORPUS_GROUPOIDS = ("negation_groupoid", "s3_natural", "z4_parity")
LIE_SUBS = ("validate", "series", "roots", "exptest", "coadjoint", "census", "stratify",
            "probe-minus-one")
GRPD_SUBS = ("validate", "classify", "pullback-verify", "bimodule-verify", "decompose",
             "profile", "regrep")


def ladder():
    algebras = [(["--name", n], make().dim) for n, make in catalog.LIE_CATALOG.items()]
    rational = {n for n, make in catalog.LIE_CATALOG.items() if make().field == "Q"}
    for n in CORPUS_ALGEBRAS:
        path = f"corpus/{n}.json"
        algebras.append((["--in", path], json.loads((ROOT / path).read_text())["dim"]))
    for inp, dim in algebras:
        points = [",".join(["1"] * dim), ",".join(str(i + 1) for i in range(dim))]
        if inp[1] in rational:  # (-1)^k (k+1)/(k+2): denominators and both signs
            points.append(",".join(f"{(-1) ** k * (k + 1)}/{k + 2}" for k in range(dim)))
        for fmt in ("json", "text"):
            for sub in LIE_SUBS:
                argv = ["lie", sub] + inp + ["--format", fmt]
                if sub == "coadjoint":
                    for point in points:
                        yield argv + ["--point", point]
                elif sub in ("census", "stratify"):
                    yield argv + ["--samples", "48", "--seed", "1"]
                else:
                    yield argv
    for fmt in ("json", "text"):
        yield ["cascade", "--table", "--format", fmt]
        for name in cascade_classification(8):
            yield ["cascade", "--family", name[0], "--rank", name[1:], "--format", fmt]
    yield ["cascade", "--table", "--max-rank", "24"]
    for family in "ABCD":
        yield ["cascade", "--family", family, "--rank", "24"]
    yield ["cascade", "--family", "A", "--rank", "25"]
    yield ["cascade", "--table", "--max-rank", "0"]
    groupoids = [["--name", n] for n in catalog.GROUPOID_CATALOG]
    groupoids += [["--in", f"corpus/{n}.json"] for n in CORPUS_GROUPOIDS]
    for inp in groupoids:
        for fmt in ("json", "text"):
            for sub in GRPD_SUBS:
                extra = ["--object", "0"] if sub == "regrep" else []
                yield ["grpd", sub] + inp + ["--format", fmt] + extra


def direct_sum(*algebras):
    brackets, off = {}, 0
    for L in algebras:
        for j, k, terms in L.brackets:
            brackets[off + j, off + k] = {off + l: c for l, c in terms}
        off += L.dim
    return from_brackets(off, brackets, field=algebras[0].field)


def sums():
    """file name -> direct sum for the second ladder."""
    axb = catalog.axb()
    return {
        "axb^2.json": direct_sum(axb, axb),
        "axb^3.json": direct_sum(axb, axb, axb),
        "realified_borel+axb_semidirect_plane.json":
            direct_sum(catalog.realified_borel(), catalog.axb_semidirect_plane()),
    }


def conjugate(L, ops):
    """L in the basis Y'_j = Y_j + c Y_i, one step per (i, j, c) in ops: a
    unimodular change of basis, so the structure tensor becomes dense."""
    n = L.dim
    p = [[int(r == c) for c in range(n)] for r in range(n)]
    q = [row[:] for row in p]  # p^-1
    for i, j, c in ops:
        for row in p:
            row[j] += c * row[i]
        q[i] = [x - c * y for x, y in zip(q[i], q[j])]
    cols = [tuple(row[a] for row in p) for a in range(n)]
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            old = L.bracket(cols[a], cols[b])
            new = [sum(x * y for x, y in zip(row, old)) for row in q]
            brackets[a, b] = {k: c for k, c in enumerate(new) if c}
    return from_brackets(n, brackets)


def cyclic_conjugate(L):
    """L conjugated by the cyclic steps Y_{i+1} += Y_i, then Y_{i+3} -= Y_i."""
    n = L.dim
    return conjugate(L, [(i, (i + 1) % n, 1) for i in range(n)]
                     + [(i, (i + 3) % n, -1) for i in range(n)])


def rescale(L, factors):
    """L in the basis Y'_i = factors[i] Y_i: rational structure constants."""
    brackets = {(j, k): {l: c * factors[j] * factors[k] / factors[l] for l, c in terms}
                for j, k, terms in L.brackets}
    return from_brackets(L.dim, brackets)


QI_NILPOTENT = "qi_nilpotent.json"


def stratify_docs():
    """file name -> document for the third ladder."""
    filiform5 = from_brackets(5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}, (1, 2): {4: 1}})
    return {
        "filiform4~.json": algebra_to_json(
            conjugate(catalog.filiform4(), [(0, 1, 1), (2, 3, -1), (1, 3, 1), (3, 0, 1), (2, 1, -1)])
        ),
        "heisenberg+filiform4.json": algebra_to_json(
            direct_sum(catalog.heisenberg(), catalog.filiform4())
        ),
        "qi.json": {"dim": 3, "field": "Qi",
                    "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1+1i"}}]},
        "filiform4*.json": algebra_to_json(
            rescale(catalog.filiform4(), [Fraction(1, 2), Fraction(-3), Fraction(2, 3), Fraction(5, 4)])
        ),
        "filiform5.json": algebra_to_json(filiform5),
        QI_NILPOTENT: {"dim": 4, "field": "Qi", "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": "1/2+1/3i", "3": "-3/7"}},
            {"i": 0, "j": 2, "coeffs": {"3": "-2/5i"}}]},
    }


def natural_action(n):
    return {
        "kind": "group_action",
        "group": {"family": "symmetric", "n": n},
        "points": list(range(n)),
        "table": [list(g) for g in itertools.permutations(range(n))],
    }


S4_NATURAL = natural_action(4)


def action_docs():
    """file name -> action document for the fourth ladder."""
    s4_rows = S4_NATURAL["table"]
    return {
        "c4_on_3.json": {
            "kind": "group_action",
            "group": {"family": "cyclic", "n": 4},
            "points": [0, 1, 2],
            "table": [[(x + g) % 3 for x in range(3)] for g in range(4)],
        },
        "s4_repeated_row.json": dict(S4_NATURAL, table=s4_rows[:-2] + [s4_rows[-1]] * 2),
        "s5_natural.json": natural_action(5),
    }


def fourth_ladder():
    for name in ("c4_on_3.json", "s4_repeated_row.json"):
        for fmt in ("json", "text"):
            yield ["grpd", "validate", "--in", name, "--format", fmt]
    for sub in ("pullback-verify", "decompose"):
        yield ["grpd", sub, "--in", "s5_natural.json"]


def fifth_ladder():
    names = [["--name", n] for n, make in catalog.LIE_CATALOG.items() if make().field == "Q"]
    for inp in names + [["--in", "axb^2.json"]]:
        for samples in ("1", "2"):
            yield ["lie", "census"] + inp + ["--samples", samples]
    yield ["lie", "coadjoint", "--name", "complex_borel", "--point", "1+1i,2-3i"]


def weight_docs():
    """file name -> algebra for the sixth ladder."""
    return {
        "e2+axb.json": direct_sum(catalog.euclid2(), catalog.axb()),
        "realified_borel~.json": conjugate(
            catalog.realified_borel(), [(0, 2, 1), (3, 1, -1), (1, 0, 2), (2, 3, 1)]),
        "complex_borel+complex_borel.json":
            direct_sum(catalog.complex_borel(), catalog.complex_borel()),
        "irrational_spectrum.json": catalog.irrational_spectrum_algebra(),
        "(e2+axb)^2~.json": cyclic_conjugate(direct_sum(*[catalog.euclid2(), catalog.axb()] * 2)),
        "axb^4~.json": cyclic_conjugate(direct_sum(*[catalog.axb()] * 4)),
    }


def sixth_ladder(names):
    for name in names:
        for sub in ("roots", "exptest"):
            yield ["lie", sub, "--in", name]
    for name in ("(e2+axb)^2~.json", "axb^4~.json"):
        yield ["lie", "series", "--in", name]


def third_ladder(names):
    for name in names:
        for fmt in ("json", "text"):
            yield ["lie", "stratify", "--in", name, "--format", fmt, "--samples", "48",
                   "--seed", "1"]
    for fmt in ("json", "text"):
        for sub in ("validate", "series"):
            yield ["lie", sub, "--in", QI_NILPOTENT, "--format", fmt]
        yield ["lie", "coadjoint", "--in", QI_NILPOTENT, "--format", fmt,
               "--point", "1/2+i,2,-3i,1"]
    for sub in ("roots", "exptest", "probe-minus-one"):
        yield ["lie", sub, "--in", QI_NILPOTENT]
    yield ["grpd", "regrep", "--in", "s4_natural.json", "--object", "0"]


def sum_ladder(names):
    for name in names:
        for fmt in ("json", "text"):
            for sub in ("roots", "exptest", "census"):
                argv = ["lie", sub, "--in", name, "--format", fmt]
                yield argv + (["--samples", "48", "--seed", "1"] if sub == "census" else [])


def conjugation_action(n):
    """S_n acting on its own elements by g . x = g x g^-1."""
    elements = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elements)}
    def conj(g, x):
        inv = sorted(range(n), key=g.__getitem__)
        return tuple(g[x[inv[i]]] for i in range(n))
    return {
        "kind": "group_action",
        "group": {"family": "symmetric", "n": n},
        "points": [list(x) for x in elements],
        "table": [[index[conj(g, x)] for x in elements] for g in elements],
    }


def seventh_docs():
    """file name -> (document, regrep base object) for the seventh ladder."""
    cyclic = {x: FiniteGroup.cyclic(k) for x, k in enumerate((3, 1, 4))}
    group = FiniteGroup.from_permutations([(1, 2, 0, 3), (0, 1, 3, 2)], 4)
    action = FiniteGroupAction.make(group, range(5), lambda g, x: g[x] if x < 4 else x)
    return {
        "s4_natural.json": (S4_NATURAL, "0"),
        "s5_natural.json": (natural_action(5), "0"),
        "s4_conjugation.json": (conjugation_action(4), "[1, 0, 2, 3]"),
        "pair4.json": (groupoid_to_json(pair_groupoid(range(4))), "0"),
        "cyclic_bundle.json": (groupoid_to_json(group_bundle(cyclic, range(3))), "0"),
        "action_table.json": (groupoid_to_json(transformation_groupoid(action)), "0"),
    }


def seventh_ladder(docs):
    for name, (_, base) in docs.items():
        for fmt in ("json", "text"):
            for sub in GRPD_SUBS:
                extra = ["--object", base] if sub == "regrep" else []
                yield ["grpd", sub, "--in", name, "--format", fmt] + extra


# ad(Y1) = diag(10^7, 1, 2) on Y2, Y3, Y4
DIAGONAL_FORM = {"dim": 4, "field": "Q", "brackets": [
    {"i": 0, "j": 1, "coeffs": {"1": "10000000"}},
    {"i": 0, "j": 2, "coeffs": {"2": "1"}},
    {"i": 0, "j": 3, "coeffs": {"3": "2"}}]}


def probe_docs():
    """file name -> algebra document for the eighth ladder's last runs."""
    return {
        "huge_weight.json": {"dim": 2, "field": "Q", "brackets": [
            {"i": 0, "j": 1, "coeffs": {"1": "1" + "0" * 399}}]},
        "companion_form.json": {"dim": 4, "field": "Q", "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": "1"}},
            {"i": 0, "j": 2, "coeffs": {"3": "1"}},
            {"i": 0, "j": 3, "coeffs": {"1": "20000000", "2": "-30000002",
                                        "3": "10000003"}}]},
    }


def ninth_ladder():
    for name in ("companion_form.json", "diagonal_form.json"):
        for sub in ("roots", "exptest"):
            yield ["lie", sub, "--in", name]


def probe_ladder(names):
    inputs = [["--name", n] for n in catalog.LIE_CATALOG] + [["--in", n] for n in names]
    for inp in inputs:
        for seed in ("1", "2"):
            yield ["lie", "probe-minus-one"] + inp + ["--seed", seed]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    digest = hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest()
    return code, digest


def main() -> None:
    os.chdir(ROOT)
    for argv in ladder():
        code, digest = run(argv)
        print(f"{' '.join(argv)}\t{code}\t{digest}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        algebras = sums()
        for name, L in algebras.items():
            Path(name).write_text(json.dumps(algebra_to_json(L)))
        docs = stratify_docs()
        for name, doc in docs.items():
            Path(name).write_text(json.dumps(doc))
        Path("s4_natural.json").write_text(json.dumps(S4_NATURAL))
        for name, doc in action_docs().items():
            Path(name).write_text(json.dumps(doc))
        weighted = weight_docs()
        for name, L in weighted.items():
            Path(name).write_text(json.dumps(algebra_to_json(L)))
        grpd_docs = seventh_docs()
        for name, (doc, _) in grpd_docs.items():
            Path(name).write_text(json.dumps(doc))
        probed = probe_docs()
        for name, doc in probed.items():
            Path(name).write_text(json.dumps(doc))
        Path("diagonal_form.json").write_text(json.dumps(DIAGONAL_FORM))
        for argv in itertools.chain(sum_ladder(algebras), third_ladder(docs),
                                    fourth_ladder(), fifth_ladder(), sixth_ladder(weighted),
                                    seventh_ladder(grpd_docs),
                                    probe_ladder([*algebras, *probed]), ninth_ladder()):
            code, digest = run(argv)
            print(f"{' '.join(argv)}\t{code}\t{digest}")
        os.chdir(ROOT)


if __name__ == "__main__":
    main()
