"""Seeded input documents and job lists for the three benchmark workloads.

Everything here is built from the workload seed alone, without importing the
program: the program only ever sees the JSON files written by `write_jobs`
and the CLI flags of each job.  The same seed gives byte-identical files.

A job is a dict with an `argv` (the `--in` path is filled in when the file is
written), a `check` that `oracle.py` applies to the report, and `seeded`,
true when its input is drawn from the seed.  Each input
family is here for a reason recorded next to its builder; `README.md` repeats
them.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# Lie algebras as dense structure tensors c[i][j][k] over Q


class Algebra:
    """Structure constants plus the invariants the oracle checks against."""

    def __init__(self, name, tensor, *, components, exponential, generic_rank=None):
        self.name = name
        self.tensor = tensor
        self.dim = len(tensor)
        self.components = components  # true count of open-orbit components
        self.exponential = exponential
        self.generic_rank = generic_rank  # for nilpotent algebras

    def doc(self) -> dict:
        brackets = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                coeffs = {
                    str(k): str(c) for k, c in enumerate(self.tensor[i][j]) if c != 0
                }
                if coeffs:
                    brackets.append({"i": i, "j": j, "coeffs": coeffs})
        return {"dim": self.dim, "field": "Q", "brackets": brackets}


def _tensor(dim, brackets):
    t = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), coeffs in brackets.items():
        for k, c in coeffs.items():
            t[i][j][k] = Fraction(c)
            t[j][i][k] = -Fraction(c)
    return t


def _realify(dim, brackets):
    """Real form of a complex algebra with rational structure constants.

    Basis (Y_1..Y_m, iY_1..iY_m): [Y_i, iY_j] = [iY_i, Y_j] = i[Y_i, Y_j] and
    [iY_i, iY_j] = -[Y_i, Y_j].
    """
    c = _tensor(dim, brackets)
    m = dim
    t = [[[Fraction(0)] * 2 * m for _ in range(2 * m)] for _ in range(2 * m)]
    for i, j, k in itertools.product(range(m), repeat=3):
        v = c[i][j][k]
        t[i][j][k] += v
        t[i][m + j][m + k] += v
        t[m + i][j][m + k] += v
        t[m + i][m + j][k] -= v
    return t


# The true component counts are those of the acceptance gate (axb 2,
# heisenberg 0, e2 0, realified_borel 1).  For axb_semidirect_plane the skew
# form has Pfaffian -xi_3^2 / 2, so its nondegenerate set is two half-spaces.
# Odd dimension (heisenberg, e2) or a rank-2 form in dimension 4 (filiform4)
# leaves no open orbit at all.
BASE = {
    "axb": lambda: Algebra("axb", _tensor(2, {(0, 1): {1: 1}}),
                           components=2, exponential=True),
    "heisenberg": lambda: Algebra("heisenberg", _tensor(3, {(0, 1): {2: 1}}),
                                  components=0, exponential=True, generic_rank=2),
    "e2": lambda: Algebra("e2", _tensor(3, {(0, 1): {2: 1}, (0, 2): {1: -1}}),
                          components=0, exponential=False),
    "filiform4": lambda: Algebra("filiform4",
                                 _tensor(4, {(0, 1): {2: 1}, (0, 2): {3: 1}}),
                                 components=0, exponential=True, generic_rank=2),
    "axb_semidirect_plane": lambda: Algebra(
        "axb_semidirect_plane",
        _tensor(4, {(0, 1): {1: 1}, (0, 2): {2: Fraction(1, 2)},
                    (0, 3): {3: Fraction(-1, 2)}, (1, 3): {2: 1}}),
        components=2, exponential=True),
    "realified_borel": lambda: Algebra("realified_borel",
                                       _realify(2, {(0, 1): {1: 2}}),
                                       components=1, exponential=False),
    "realified_heisenberg": lambda: Algebra(
        "realified_heisenberg", _realify(3, {(0, 1): {2: 1}}),
        components=0, exponential=True, generic_rank=4),
}

# Q-algebras of the catalog, run by `--name` (the rest go through `--in`).
CATALOG_Q = ("axb", "axb_semidirect_plane", "realified_borel", "heisenberg",
             "filiform4", "e2")


def direct_sum(*algs: Algebra) -> Algebra:
    """Block-diagonal sum; every invariant the oracle uses is additive or
    multiplicative over the summands."""
    dim = sum(a.dim for a in algs)
    t = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    off = 0
    for a in algs:
        for i in range(a.dim):
            for j in range(a.dim):
                for k in range(a.dim):
                    t[off + i][off + j][off + k] = a.tensor[i][j][k]
        off += a.dim
    ranks = [a.generic_rank for a in algs]
    return Algebra(
        "+".join(a.name for a in algs), t,
        components=math.prod(a.components for a in algs),
        exponential=all(a.exponential for a in algs),
        generic_rank=sum(ranks) if None not in ranks else None,
    )


def axb_power(k: int) -> Algebra:
    alg = direct_sum(*[BASE["axb"]() for _ in range(k)])
    alg.name = f"axb^{k}"
    return alg


def unimodular(rng: random.Random, dim: int, ops: int):
    """P and P^-1 from `ops` elementary integer column operations col_j += c col_i."""
    p = [[Fraction(int(r == c)) for c in range(dim)] for r in range(dim)]
    q = [row[:] for row in p]
    for _ in range(ops):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-1, 1))
        for r in range(dim):  # P <- P E with E = I + c e_i e_j^T
            p[r][j] += c * p[r][i]
        for col in range(dim):  # Q <- E^-1 Q: row_i -= c row_j
            q[i][col] -= c * q[j][col]
    return p, q


def conjugate(alg: Algebra, rng: random.Random) -> Algebra:
    """The same algebra in the basis Y'_i = sum_a P[a][i] Y_a, P unimodular.

    Counts, verdicts and ranks are basis-invariant, so the conjugate keeps the
    original's invariants while its structure tensor becomes dense.
    """
    n = alg.dim
    p, q = unimodular(rng, n, n)
    t = alg.tensor
    # bracket of new basis vectors in old coordinates, then back to new ones
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            old = [Fraction(0)] * n
            for a in range(n):
                if p[a][i] == 0:
                    continue
                for b in range(n):
                    if p[b][j] == 0:
                        continue
                    w = p[a][i] * p[b][j]
                    for k, c in enumerate(t[a][b]):
                        if c:
                            old[k] += w * c
            for l in range(n):
                v = sum((q[l][k] * old[k] for k in range(n) if old[k]), Fraction(0))
                out[i][j][l] = v
                out[j][i][l] = -v
    return Algebra(f"{alg.name}~", out, components=alg.components,
                   exponential=alg.exponential, generic_rank=alg.generic_rank)


# ---------------------------------------------------------------------------
# groups, actions and explicit groupoids


def _perm_closure(gens, n):
    ident = tuple(range(n))
    closure, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple(g[a[i]] for i in range(n))
                if b not in closure:
                    closure.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(closure)


def symmetric_action_doc(n: int) -> dict:
    elements = sorted(itertools.permutations(range(n)))
    return {
        "kind": "group_action",
        "group": {"family": "symmetric", "n": n},
        "points": list(range(n)),
        "table": [list(g) for g in elements],
    }


def random_action(rng: random.Random):
    """A small permutation-group action with 0-2 extra fixed points.

    Same distribution as the acceptance pullback fuzz: n in 2..6 points, one
    or two random generators, group order at most 8, cyclic fallback.
    Returns (document, group elements, points, act, group document).
    """
    for _ in range(200):
        n = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 2)):
            perm = list(range(n))
            rng.shuffle(perm)
            gens.append(tuple(perm))
        elements = _perm_closure(gens, n)
        if len(elements) <= 8:
            group = {"family": "permutations", "n": n,
                     "generators": [list(g) for g in gens]}
            break
    else:
        n = rng.randint(2, 4)
        elements = list(range(n))
        group = {"family": "cyclic", "n": n}
    extra = rng.randint(0, 2)
    points = list(range(n + extra))
    if group["family"] == "cyclic":
        act = lambda g, x: (x + g) % n if x < n else x  # noqa: E731
    else:
        act = lambda g, x: g[x] if x < n else x  # noqa: E731
    doc = {
        "kind": "group_action",
        "group": group,
        "points": points,
        "table": [[act(g, x) for x in points] for g in elements],
    }
    return doc, elements, points, act, group


def explicit_groupoid_doc(objects, morphisms, source, target, compose,
                          identity, inverse) -> dict:
    """A `kind: groupoid` document with every composable pair tabulated."""
    index = {m: i for i, m in enumerate(morphisms)}
    oindex = {x: i for i, x in enumerate(objects)}
    comp = [
        [index[g], index[h], index[compose(g, h)]]
        for g in morphisms for h in morphisms if source[g] == target[h]
    ]
    return {
        "kind": "groupoid",
        "objects": list(objects),
        "morphism_count": len(morphisms),
        "source": [oindex[source[m]] for m in morphisms],
        "target": [oindex[target[m]] for m in morphisms],
        "composition": comp,
        "identities": [index[identity(x)] for x in objects],
        "inverses": [index[inverse(m)] for m in morphisms],
    }


def pair_groupoid_doc(k: int) -> dict:
    objs = list(range(k))
    mors = [(y, x) for y in objs for x in objs]
    return explicit_groupoid_doc(
        objs, mors, {m: m[1] for m in mors}, {m: m[0] for m in mors},
        lambda g, h: (g[0], h[1]), lambda x: (x, x), lambda m: (m[1], m[0]),
    )


def cyclic_bundle_doc(orders) -> dict:
    objs = list(range(len(orders)))
    mors = [(x, a) for x in objs for a in range(orders[x])]
    return explicit_groupoid_doc(
        objs, mors, {m: m[0] for m in mors}, {m: m[0] for m in mors},
        lambda g, h: (g[0], (g[1] + h[1]) % orders[g[0]]),
        lambda x: (x, 0), lambda m: (m[0], (-m[1]) % orders[m[0]]),
    )


def action_groupoid_doc(elements, points, act, group) -> dict:
    """The transformation groupoid of an action, written as explicit tables."""
    if group["family"] == "cyclic":
        n = group["n"]
        op = lambda a, b: (a + b) % n  # noqa: E731
        inv = lambda a: (-a) % n  # noqa: E731
        ident = 0
    else:
        n = group["n"]
        op = lambda a, b: tuple(a[b[i]] for i in range(n))  # noqa: E731
        inv = lambda a: tuple(sorted(range(n), key=lambda i: a[i]))  # noqa: E731
        ident = tuple(range(n))
    mors = [(g, x) for g in elements for x in points]
    return explicit_groupoid_doc(
        points, mors, {m: m[1] for m in mors}, {m: act(*m) for m in mors},
        lambda g, h: (op(g[0], h[0]), h[1]), lambda x: (ident, x),
        lambda m: (inv(m[0]), act(*m)),
    )


# ---------------------------------------------------------------------------
# workloads


def _lie_job(jid, sub, alg_or_name, check, *flags, seeded=False):
    job = {"id": jid, "argv": ["lie", sub], "check": check, "flags": list(flags),
           "seeded": seeded}
    if isinstance(alg_or_name, str):
        job["argv"] += ["--name", alg_or_name]
    else:
        job["doc"] = alg_or_name.doc()
    return job


def census_jobs(rng: random.Random):
    """`lie census` on the catalog Q-algebras, (ax+b)^2, (ax+b)^3 and a seeded
    unimodular conjugate of every algebra with an open orbit.

    Dims 2-6, sparse and dense tensors, and degenerate inputs whose whole cost
    is the sampler.  The census cost grows with the number of components its
    samples happen to hit, so the sampler keeps the CLI's default seed: the
    catalog ladder repeats exactly, and only the conjugated bases are seeded.
    The conjugates of (ax+b)^2 and (ax+b)^3 get few samples to keep that
    seeded share of a pass small.
    """
    samples = {"axb^2": 12, "axb^3": 8, "axb^2~": 8, "axb^3~": 6}
    algs = [BASE[name]() for name in CATALOG_Q] + [axb_power(2), axb_power(3)]
    algs += [conjugate(a, rng) for a in algs if a.components]
    jobs = []
    for alg in algs:
        target = alg.name if alg.name in CATALOG_Q else alg
        check = {"kind": "census", "components": alg.components}
        jobs.append(_lie_job(
            f"census:{alg.name}", "census", target, check,
            "--samples", str(samples.get(alg.name, 32)),
            seeded=alg.name.endswith("~"),
        ))
    return jobs


def structure_jobs(rng: random.Random):
    """Series, roots and the exponential test on the catalog, seeded sums and
    conjugates; stratify on nilpotent inputs; coadjoint forms at seeded
    points; the eigenvalue -1 probe; the cascade table.

    Many small rref/kernel/charpoly/root-search problems rather than the
    census's determinants of skew forms.
    """
    jobs = []
    # every Q-algebra lands in exactly one sum, so the cost of a pass varies
    # little with the draw (realified_heisenberg in a sum would triple the
    # cost of that sum, so it runs alone)
    names = list(CATALOG_Q)
    rng.shuffle(names)
    sums = [direct_sum(BASE[a](), BASE[b]()) for a, b in zip(names[0::2], names[1::2])]
    conj = [conjugate(BASE[n](), rng) for n in CATALOG_Q]
    # (name, algebra or None, what the CLI gets); complex_borel is 2-dim over
    # the Gaussian rationals and only checked for its dimension
    # (job name, algebra or None, what the CLI gets); complex_borel is 2-dim
    # over the Gaussian rationals and only checked for its dimension.  Sums
    # are named by position so a job keeps its id from pass to pass.
    targets = [(n, BASE[n](), n) for n in CATALOG_Q] + [("complex_borel", None, "complex_borel")]
    targets += [(a.name, a, a) for a in [BASE["realified_heisenberg"]()] + conj]
    targets += [(f"sum{k}", a, a) for k, a in enumerate(sums)]
    for name, alg, target in targets:
        for sub in ("series", "roots", "exptest"):
            check = {"kind": sub, "dim": alg.dim if alg else 2}
            if name.endswith("~"):
                check["same_as"] = f"{sub}:{name[:-1]}"
            elif alg is not None and "+" in alg.name:
                check["parts"] = [f"{sub}:{part}" for part in alg.name.split("+")]
            if sub == "exptest" and alg is not None:
                check["verdict"] = alg.exponential
            jobs.append(_lie_job(f"{sub}:{name}", sub, target, check,
                                 seeded=name.endswith("~") or name.startswith("sum")))

    nil = [BASE["heisenberg"](), BASE["filiform4"](),
           direct_sum(BASE["heisenberg"](), BASE["filiform4"]()),
           direct_sum(BASE["heisenberg"](), BASE["heisenberg"]())]
    nil += [conjugate(a, rng) for a in nil[1:3]]
    for alg in nil:
        target = alg.name if alg.name in CATALOG_Q else alg
        jobs.append(_lie_job(
            f"stratify:{alg.name}", "stratify", target,
            {"kind": "stratify", "generic_rank": alg.generic_rank},
            "--samples", "64", seeded=alg.name.endswith("~"),
        ))

    for name in ("axb_semidirect_plane", "filiform4", "realified_borel",
                 "realified_heisenberg"):
        alg = BASE[name]()
        for k in range(2):
            point = [str(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                     for _ in range(alg.dim)]
            jobs.append(_lie_job(
                f"coadjoint:{name}:{k}", "coadjoint", alg,
                {"kind": "coadjoint", "tensor": _tensor_json(alg), "point": point},
                "--point=" + ",".join(point), seeded=True,
            ))
    for name, found in (("e2", True), ("axb", False)):
        jobs.append(_lie_job(f"probe:{name}", "probe-minus-one", name,
                             {"kind": "probe", "found": found}))
    jobs.append({"id": "cascade:table", "argv": ["cascade", "--table",
                 "--max-rank", "8"], "check": {"kind": "cascade"}, "flags": [],
                 "seeded": False})
    return jobs


def _tensor_json(alg):
    return [[[str(c) for c in col] for col in row] for row in alg.tensor]


def groupoid_jobs(rng: random.Random):
    """Natural S_n actions (n = 3, 4, 5) through every `grpd` verifier,
    a seeded batch of random small actions through pullback and bimodule
    verification, and explicit-table groupoids through validate."""
    jobs = []
    for n in (3, 4, 5):
        doc = symmetric_action_doc(n)
        order = len(doc["table"])
        mors = order * n
        subs = ["validate", "classify", "pullback-verify", "bimodule-verify",
                "decompose", "profile"] + (["regrep"] if n <= 4 else [])
        for sub in subs:
            flags = ["--object", "0"] if sub == "regrep" else []
            jobs.append({
                "id": f"{sub}:S{n}", "argv": ["grpd", sub], "doc": doc,
                "flags": flags, "seeded": False,
                "check": {"kind": "grpd", "sub": sub, "morphisms": mors,
                          "orbits": 1},
            })
    for k in range(24):
        doc, elements, points, _, _ = random_action(rng)
        for sub in ("pullback-verify", "bimodule-verify"):
            jobs.append({
                "id": f"{sub}:rand{k}", "argv": ["grpd", sub], "doc": doc,
                "flags": [], "seeded": True,
                "check": {"kind": "grpd", "sub": sub,
                          "morphisms": len(elements) * len(points)},
            })
    explicit = [pair_groupoid_doc(rng.randint(2, 6)),
                cyclic_bundle_doc([rng.randint(1, 5) for _ in range(rng.randint(1, 4))])]
    for _ in range(4):
        _, elements, points, act, group = random_action(rng)
        explicit.append(action_groupoid_doc(elements, points, act, group))
    for k, doc in enumerate(explicit):
        jobs.append({
            "id": f"validate:explicit{k}", "argv": ["grpd", "validate"],
            "doc": doc, "flags": [], "seeded": True,
            "check": {"kind": "grpd", "sub": "validate",
                      "morphisms": doc["morphism_count"]},
        })
    return jobs


WORKLOADS = {"census": census_jobs, "structure": structure_jobs,
             "groupoid": groupoid_jobs}


def write_jobs(workload: str, seed: int, pass_index: int, workdir: str) -> list:
    """Write the input files of one pass and return its jobs, ready to run.

    Each pass draws fresh seeded inputs (conjugates, sums, points, random
    actions), so a run averages over several of them; the fixed ladder is the
    same in every pass.
    """
    jobs = WORKLOADS[workload](random.Random(f"{workload}-{seed}-{pass_index}"))
    os.makedirs(workdir, exist_ok=True)
    written = {}
    for n, job in enumerate(jobs):
        doc = job.pop("doc", None)
        if doc is not None:
            text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
            path = written.get(text)
            if path is None:
                path = os.path.join(workdir, f"in{n:03d}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                written[text] = path
            job["argv"] += ["--in", path]
        job["argv"] += job.pop("flags")
    return jobs
