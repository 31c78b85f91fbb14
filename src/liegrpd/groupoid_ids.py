"""The integer view of a finite groupoid and the verifiers that run on it.

Objects and morphisms are numbered in input order (transformation
groupoids compute their id lists from the action's rows); products of ids
come from an integer table: a group's multiplication table, built by numpy
for permutation and cyclic groups, or a groupoid's own `compose_ids`.  The
pullback and bimodule verifiers here, and `groupoids.validate_groupoid`,
run their loops over composable pairs and triples as numpy index
operations on these ids, in chunks of at most CHUNK entries; `groupoids`
exports them with the rest of the groupoid API.

All three first refuse a product that is no morphism or leaves its
hom-set, raising validate's AxiomError("composite has wrong endpoints",
(g, h, g o h)) (`GroupoidIds.refuse_off_hom`).  Past that refusal the ids
decide every check: on every other table, with identities and inverses in
their hom-sets, the verdicts and witnesses are those of the label loops
the verifiers replaced.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property


class AxiomError(ValueError):
    """A groupoid/group/action table violates an axiom; args carry a witness."""


class NotInvariant(ValueError):
    """A subset of objects is not closed under the morphisms."""


CHUNK = 1 << 13  # index entries per numpy step of a table build or verifier loop


def cyclic_table(elements) -> np.ndarray:
    """(a + b) mod n on the residues 0..n-1."""
    import numpy as np
    residues = np.arange(len(elements), dtype=np.int32)
    return (residues[:, None] + residues) % len(elements)


def permutation_table(elements) -> np.ndarray:
    """mult[a, b] = index of a o b, for permutations closed under composition
    and listed in lexicographic order (as `symmetric` and
    `from_permutations` list them), by numpy.

    The rows a o b are composed for blocks of a at once and found among the
    elements by an exact int64 code, which grows in lexicographic order: the
    images are read in blocks of w columns with order * n^w < 2^62, and
    before each further block the code so far is replaced by its rank among
    the elements' codes, so no code overflows for any n.
    """
    import numpy as np
    perms = np.array(elements, dtype=np.int64).reshape(len(elements), -1)
    order, n = perms.shape
    width = max(1, int((62 - math.log2(max(order, 2))) // math.log2(max(n, 2))))
    powers = [n ** np.arange(len(range(n)[lo:lo + width]) - 1, -1, -1)
              for lo in range(0, max(n, 1), width)]
    stages = []  # the elements' distinct codes after each block but the last

    def codes(rows):
        code = rows[..., :width] @ powers[0]
        for k, stage in enumerate(stages, 1):
            block = rows[..., k * width:(k + 1) * width]
            code = stage.searchsorted(code) * n ** len(powers[k]) + block @ powers[k]
        return code

    for k in range(1, len(powers)):
        stages.append(np.unique(codes(perms[:, :k * width])))
    ranks = codes(perms)  # ascending: the elements are in lexicographic order
    step = max(1, CHUNK // max(1, order * n))
    if step >= order:
        return ranks.searchsorted(codes(perms[:, perms])).astype(np.int32)
    return np.concatenate([ranks.searchsorted(codes(perms[lo:lo + step][:, perms]))
                           for lo in range(0, order, step)]).astype(np.int32)


def grouped(keys, n: int):
    """(groups, pos): groups[k] lists the i with keys[i] = k in input order,
    and pos[i] is the place of i in its group."""
    groups, pos = [[] for _ in range(n)], []
    for i, k in enumerate(keys):
        pos.append(len(groups[k]))
        groups[k].append(i)
    return groups, pos


def padded(rows) -> np.ndarray:
    """Lists of ids as the rows of one array, padded with -1."""
    import numpy as np
    width = max(map(len, rows), default=0)
    return np.array([g for row in rows for g in row + [-1] * (width - len(row))],
                    dtype=np.intp).reshape(len(rows), width)


def chunks(lengths):
    """(lo, hi) ranges of items with at most CHUNK entries together, or one
    longer item, covering every item in order."""
    ends, lo = lengths.cumsum(), 0
    while lo < len(ends):
        hi = max(lo + 1, int(ends.searchsorted((ends[lo - 1] if lo else 0) + CHUNK, "right")))
        yield lo, hi
        lo = hi


class GroupoidIds:
    """The integer view of a FiniteGroupoid, `G.ids`.

    Objects and morphisms are numbered in input order.  `sources`,
    `targets`, `identities` and `inverses` list ids, -1 where a label is no
    morphism; `into` and `out` group the morphisms by target and by source,
    in input order, with each one's place in its group; `rep` gives each
    object the least object of its orbit, and `loops` each representative
    its isotropy group.  `compose(g, h)` maps arrays of composable id pairs
    to the ids of their products, -1 where a product is no morphism: the
    groupoid's `compose_ids`, or its product callable on each pair, once per
    pair asked for.  `pair_products` fills the table of all composable
    pairs and refuses a product outside its hom-set.  `associativity` is
    (check, triples) once `groupoids.validate_groupoid` has passed.  The
    first four are read off G's labels unless its builder gives `lists`.
    """

    def __init__(self, G, lists=None):
        self.morphisms, self.objects, self.product = G.morphisms, G.objects, G.product
        self.compose = G.compose_ids or self._call_product
        self.associativity = None
        if lists is None:
            index, oid = self.index, {x: i for i, x in enumerate(G.objects)}
            lists = ([oid[G.source[g]] for g in G.morphisms],
                     [oid[G.target[g]] for g in G.morphisms],
                     [index.get(G.identities.get(x), -1) for x in G.objects],
                     [index.get(G.inverses.get(g), -1) for g in G.morphisms])
        self.sources, self.targets, self.identities, self.inverses = lists

    @cached_property
    def index(self) -> dict:
        return {g: i for i, g in enumerate(self.morphisms)}

    @cached_property
    def ends(self):
        """(d, r): sources and targets as arrays followed by one entry -2
        and -3, so that d[g] == r[h] is false where an id is -1."""
        import numpy as np
        return (np.array(self.sources + [-2], dtype=np.intp),
                np.array(self.targets + [-3], dtype=np.intp))

    @cached_property
    def into(self):
        return grouped(self.targets, len(self.objects))

    @cached_property
    def out(self):
        return grouped(self.sources, len(self.objects))

    @cached_property
    def rep(self) -> list:
        rep = list(range(len(self.objects)))

        def find(x):
            while rep[x] != x:
                rep[x] = x = rep[rep[x]]
            return x

        for a, b in set(zip(self.sources, self.targets)):  # roots stay least in any order
            a, b = find(a), find(b)
            rep[max(a, b)] = min(a, b)
        return [find(x) for x in range(len(rep))]

    @cached_property
    def loops(self) -> dict:
        out = self.out[0]
        return {r: [g for g in out[r] if self.targets[g] == r] for r in dict.fromkeys(self.rep)}

    @cached_property
    def sigma(self) -> list:
        """sigma[x], the first morphism from x to rep[x]: the identity on
        representatives, -1 where there is none."""
        out = self.out[0]
        return [self.identities[x] if x == r else next(
            (g for g in out[x] if self.targets[g] == r), -1) for x, r in enumerate(self.rep)]

    @cached_property
    def pair_index(self):
        """(ptr, items, pos, fan, start): the morphisms into y are listed
        from items[ptr[y]] on, and the composable pair (g, h) is number
        start[g] + pos[h], g in input order, then h; fan[g] counts the
        pairs of g."""
        import numpy as np
        into, pos = self.into
        fan_in = [len(ids) for ids in into]
        fan = [fan_in[y] for y in self.sources]
        return tuple(np.array(v, dtype=np.intp) for v in (
            [0, *itertools.accumulate(fan_in)][:-1], [g for ids in into for g in ids], pos, fan,
            [0, *itertools.accumulate(fan)]))

    def pairs(self, lo: int, hi: int):
        """(g, h) over the composable pairs with lo <= g < hi, in loop order."""
        import numpy as np
        ptr, items, _, fan, start = self.pair_index
        g = np.arange(lo, hi).repeat(fan[lo:hi])
        return g, items[np.arange(start[lo], start[hi]) - start[g] + ptr[self.ends[0][g]]]

    def _call_product(self, g, h) -> np.ndarray:
        import numpy as np
        mors, index, product = self.morphisms, self.index, self.product
        return np.array([index.get(product(mors[a], mors[b]), -1)
                         for a, b in zip(g.tolist(), h.tolist())], dtype=np.intp)

    def refuse_off_hom(self, g, h, k) -> None:
        """Raise validate's AxiomError where k, the products of the
        composable id pairs (g, h), holds one that is no morphism or leaves
        Hom(d h, r g): at the first such pair in validate's order (g in
        input order, then h), with the product's label as the third entry
        of the witness, computed again by the product callable."""
        d, r = self.ends
        bad = ((d[k] != d[h]) | (r[k] != r[g])).nonzero()[0]
        if len(bad):
            _, _, pos, _, start = self.pair_index
            i = bad[(start[g[bad]] + pos[h[bad]]).argmin()]
            a, b = self.morphisms[g[i]], self.morphisms[h[i]]
            raise AxiomError("composite has wrong endpoints", (a, b, self.product(a, b)))

    def pair_products(self) -> np.ndarray:
        """The products of all composable pairs, (g, h) at start[g] + pos[h]
        of `pair_index`, computed in chunks of at most CHUNK pairs, g in
        input order and then h; the first product outside its hom-set
        raises validate's AxiomError."""
        import numpy as np
        _, _, _, fan, start = self.pair_index
        table = np.empty(start[-1], dtype=np.int32)
        for lo, hi in chunks(fan):
            g, h = self.pairs(lo, hi)
            table[start[lo]:start[hi]] = k = self.compose(g, h)
            self.refuse_off_hom(g, h, k)
        return table

    def law_failures(self, table):
        """(identity_bad, inverse_bad): whether g o e = g = e o g or g o g^-1 =
        e = g^-1 o g fails, per morphism, read from `pair_products`' table;
        where a pair does not compose, its law fails and its lookup is masked."""
        import numpy as np
        d, r = self.ends
        _, _, pos, _, start = self.pair_index
        g = np.arange(len(self.morphisms))
        e, inv = (np.array(v, dtype=np.intp) for v in (self.identities, self.inverses))
        e_d, e_r = e[d[g]], e[r[g]]
        left, right = np.concatenate((g, e_r, g, inv)), np.concatenate((e_d, g, inv, g))
        bad = ((d[left] != r[right]) | (table.take(start[left] + pos[right], mode="clip")
                                        != np.concatenate((g, g, e_r, e_d)))).reshape(4, -1)
        return bad[0] | bad[1], bad[2] | bad[3]


class PullbackIds:
    """Ids of the pullback's morphisms (x, h, y): the one enumeration of
    them, which `build_pullback` labels.

    Objects and morphisms of G are taken as ids.  `sigma[x]` is the first
    morphism from x to its representative rep[x] (the identity on
    representatives; -1 where there is none), `size[x]` the order of the
    isotropy group at rep[x], and `slot[h]` the place of h in the isotropy
    group at `loop_at[h]` (-1 for a morphism that is no loop at a
    representative, and for id -1).
    (x, h, y) has id base[x] + spot[y] size[x] + slot[h], with spot[y] the
    place of y in its orbit; `target`, `middle` and `source` list x, h and
    y of each pullback id.
    """

    def __init__(self, V: GroupoidIds):
        self.rep = rep = V.rep
        orbits, self.spot = grouped(rep, len(rep))
        self.loop_at, self.slot = [-1] * (len(V.morphisms) + 1), [-1] * (len(V.morphisms) + 1)
        for r, ids in V.loops.items():
            for k, h in enumerate(ids):
                self.loop_at[h], self.slot[h] = r, k
        self.sigma = V.sigma
        self.size = [len(V.loops[r]) for r in rep]
        self.base, self.target, self.source, self.middle = [], [], [], []
        for x, r in enumerate(rep):
            self.base.append(len(self.target))
            for y in orbits[r]:
                self.target += [x] * self.size[x]
                self.source += [y] * self.size[x]
                self.middle += V.loops[r]
        self.count = len(self.target)

    def pid(self, x: int, h: int, y: int) -> int:
        """The id of (x, h, y), or -1 when h is no loop at x's representative."""
        if self.loop_at[h] != self.rep[x]:
            return -1
        return self.base[x] + self.spot[y] * self.size[x] + self.slot[h]

    @cached_property
    def arrays(self):
        import numpy as np
        return [np.array(v, dtype=np.intp) for v in (
            self.rep, self.base, self.spot, self.size, self.loop_at, self.slot,
            self.target, self.middle, self.source)]

    def place(self, x, h, y):
        """`pid` on arrays."""
        import numpy as np
        rep, base, spot, size, loop_at, slot = self.arrays[:6]
        return np.where(loop_at[h] == rep[x], base[x] + spot[y] * size[x] + slot[h], -1)


# ---------------------------------------------------------------------------
# the pullback isomorphism


@dataclass(frozen=True)
class PullbackReport:
    ok: bool
    morphism_count: int
    pullback_count: int
    bijective: bool
    functorial: bool
    identities_match: bool
    inverses_match: bool
    round_trip: bool
    failure: tuple = ()


def pullback_isomorphism_verify(G: FiniteGroupoid) -> PullbackReport:
    """Exhaustively verify G ~ pullback of its isotropy bundle.

    Phi(g) = (r(g), sigma(r(g)) o g o sigma(d(g))^{-1}, d(g)) and the inverse
    map is (x, h, y) -> sigma(x)^{-1} o h o sigma(y); both directions, the
    functor law, identities, and inverses are checked on every morphism.

    The checks run on the integer view.  The products of all composable
    pairs are computed once into a table by `GroupoidIds.pair_products`,
    which raises validate's AxiomError at a product outside its hom-set,
    and Phi and the inverse map read theirs from it; Phi(g) is held as the
    id of its middle arrow mid(g), a loop at the orbit representative, and
    its pullback id (-1 outside the pullback).  So the endpoints are
    checked once, by the table: Phi(g o h) and Phi(g) o Phi(h) share them,
    and a second pass over the chunks checks the functor law on middles,
    mid(g o h) = mid(g) o mid(h), both read from the table as numpy index
    operations, g in input order, then h; a Phi(g) outside the pullback
    fails every pair of g.  Once every product is a morphism in its
    hom-set the ids decide each check, and each reports the first item
    they flag: where identities and inverses lie in their hom-sets, the
    verdicts and witnesses are the label loops'.  (An inverse outside its
    hom-set sends some Phi(g) out of the pullback, which the checks flag;
    the label loops raised KeyError there.)  The identity and inverse
    checks also read e o g = g = g o e and g o g^-1 = e = g^-1 o g off it.
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
    _, _, places, fan, start = V.pair_index
    found, at, pos = memoryview(table), start.tolist(), V.into[1]

    def products(g, h):
        """Products of id lists from the table, -1 for pairs that do not compose."""
        return [found[at[a] + pos[b]] if a >= 0 <= b and src[a] == tgt[b] else -1
                for a, b in zip(g, h)]

    # Phi's middle arrows sigma(r g) o g o sigma(d g)^-1
    mid = products(products([sig[y] for y in tgt], range(m)), [inv[sig[x]] for x in src])
    image = [P.pid(y, h, x) for y, h, x in zip(tgt, mid, src)]
    bijective = P.count == m and min(image, default=0) >= 0 and len(set(image)) == m
    # inside the pullback, mid(g) and mid(h) are loops at one representative
    mids, inside = np.array(mid, dtype=np.intp), np.array(image, dtype=np.intp) >= 0
    failure = ()
    for lo, hi in chunks(fan):
        g, h = V.pairs(lo, hi)
        both = inside[g] & inside[h]
        composed = table[np.where(both, start[mids[g]] + places[mids[h]], 0)]
        wrong = (~both | (mids[table[start[lo]:start[hi]]] != composed)).nonzero()[0]
        if len(wrong):
            failure = ("functor", G.morphisms[g[wrong[0]]], G.morphisms[h[wrong[0]]])
            break

    e = V.identities
    identity_bad, inverse_bad = V.law_failures(table)
    identities_match = not identity_bad.any() and all(
        e[x] >= 0 <= image[e[x]] == P.pid(x, e[P.rep[x]], x) for x in range(len(G.objects)))
    # the pullback's inverse of (x, h, y) is (y, h^-1, x)
    inverses_match = not inverse_bad.any() and all(
        inv[g] >= 0 <= image[g] and image[inv[g]] == P.pid(src[g], inv[mid[g]], tgt[g]) >= 0
        for g in range(m))
    back = products([inv[sig[y]] for y in tgt], products(mid, [sig[x] for x in src]))
    round_trip = back == list(range(m))
    if round_trip:
        back = products([inv[sig[x]] for x in P.target],
                        products(P.middle, [sig[y] for y in P.source]))
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


# ---------------------------------------------------------------------------
# linking bimodule


@dataclass(frozen=True)
class BimoduleReport:
    ok: bool
    checks: tuple  # (name, bool) pairs
    element_count: int
    failure: tuple = ()


def equivalence_bimodule_verify(G: FiniteGroupoid) -> BimoduleReport:
    """Verify the linking set between G and its isotropy bundle.

    Z is the set of morphisms whose source is an orbit representative.  G
    acts on the left by composition with moment map r; the bundle acts on
    the right at the source representative.  Checked exhaustively:
      1. the two actions commute;
      2. the left moment map r: Z -> objects is surjective;
      3. the right moment map d: Z -> representatives is surjective;
      4. G acts freely and transitively on the fibers of d restricted to
         each orbit (one arrow between any two Z-elements sharing a source);
      5. the bundle acts freely and transitively on the fibers of r.

    Both actions are tabulated once on the integer view, aligned by
    position in rows padded with -1: left[k] lists g o z_k for g out of
    r(z_k), and right[k] lists z_k o b for b in the isotropy at d(z_k).  A
    product there that is no morphism or leaves its hom-set raises
    validate's AxiomError, at the first such pair in validate's order;
    every other product is an element of Z, whose own row is then at hand.
    Check 1 runs over every (z, g, b) in chunks of rows, in the label
    loop's order, and compares (g o z) o b, read from right[g o z], with
    g o (z o b), read from left[z o b].  Checks 4 and 5 count how often
    each element occurs in the row of z1, which is the hom-set scan for
    every z2 at once.  The checks stay exhaustive over all pairs and
    report the first failure in the label loops' order, so verdicts and
    witnesses are theirs.
    """
    import numpy as np
    V = G.ids
    labels, loops = G.morphisms, V.loops
    r, (out, out_pos) = V.ends[1], V.out
    z = [g for g, x in enumerate(V.sources) if x in loops]
    place = [-1] * (len(labels) + 1)  # id -1 reads -1
    for k, g in enumerate(z):
        place[g] = k
    # gs[k] and bs[k] list the g out of r(z_k) and the b in the isotropy at
    # d(z_k), left[k] and right[k] the products g o z_k and z_k o b, with
    # -1 as padding
    tz, sz = [V.targets[g] for g in z], [V.sources[g] for g in z]
    gs, bs = [out[y] for y in tz], [loops[x] for x in sz]
    firsts = np.array([g for row in gs for g in row] + [k for k, row in zip(z, bs) for _ in row],
                      dtype=np.intp)
    seconds = np.array([k for k, row in zip(z, gs) for _ in row] + [b for row in bs for b in row],
                       dtype=np.intp)
    found = V.compose(firsts, seconds)
    V.refuse_off_hom(firsts, seconds, found)
    n = len(found) - sum(map(len, bs))
    gs, bs = padded(gs), padded(bs)
    left, right = gs.copy(), bs.copy()
    left[gs >= 0], right[bs >= 0] = found[:n], found[n:]
    place, tz, sz = (np.array(v, dtype=np.intp) for v in (place, tz, sz))

    def check_commute():
        # (g o z) o b is read from right[g o z] and g o (z o b) from left[z o b];
        # padding reads an extra last row of -1, so only products can differ
        at_right, at_left = place[left], place[right]
        lhs = np.vstack((right, np.full(right.shape[1], -1)))
        rhs = np.vstack((left, np.full(left.shape[1], -1)))
        step = max(1, CHUNK // max(1, left.shape[1] * right.shape[1]))
        for lo in range(0, len(z), step):
            wrong = lhs[at_right[lo:lo + step]] != rhs[at_left[lo:lo + step]].transpose(0, 2, 1)
            if np.count_nonzero(wrong):
                k, i, j = (int(axis[0]) for axis in wrong.nonzero())
                k += lo
                return False, ("commute", labels[gs[k, i]], labels[z[k]], labels[bs[k, j]])
        return True, ()

    def check_left_moment_onto():
        if len(set(tz.tolist())) == len(G.objects):
            return True, ()
        targets = {G.target[labels[k]] for k in z}
        return False, ("left-moment", tuple(set(G.objects) - targets))

    def check_right_moment_onto():
        if len(set(sz.tolist())) == len(loops):
            return True, ()
        sources = {G.source[labels[k]] for k in z}
        return False, ("right-moment", tuple({G.objects[x] for x in loops} - sources))

    def first_wrong(order, widths, hits):
        """(row, column, count) at the first place, rows z1 = z[order[row]],
        where the count is not 1, or None; the row of z_k has widths[k]
        columns of z2 and hits[k] holds the column hit by each entry of
        z_k's row, -1 for none.  Rows that hit each of their columns once,
        in some order, pass at once."""
        widths, width = np.array(widths, dtype=np.intp), max(widths, default=0)
        ranked = np.arange(hits.shape[1]) - (hits.shape[1] - widths)[:, None]
        if not np.count_nonzero(np.sort(hits, axis=1) != np.maximum(ranked, -1)):
            return None
        rows, cols = (hits >= 0).nonzero()
        counts = np.bincount(rows * width + hits[rows, cols], minlength=len(z) * width)
        wrong = (np.arange(width) < widths[:, None]) & (counts.reshape(len(z), width) != 1)
        if not np.count_nonzero(wrong[order]):
            return None
        row, col = divmod(int(wrong[order].argmax()), width)
        return row, col, int(counts[order[row] * width + col])

    def check_left_free_transitive():
        # z1 and z2 run over out_of(rep), rep in order; g o z1 = z2 is
        # counted for g ending at r(z2), at the place of z2 in out_of(rep)
        order = place[[k for x in loops for k in out[x]]]
        found = first_wrong(order, [len(out[x]) for x in sz.tolist()],
                            np.array(out_pos + [-1])[left])
        if found is None:
            return True, ()
        row, col, n = found
        z1 = z[order[row]]
        return False, ("left-torsor", labels[z1], labels[out[V.sources[z1]][col]], n)

    def check_right_free_transitive():
        # z1 and z2 run over the Z-elements into y, y in order; z1 o b = z2 is
        # counted at the place of z2 among them; these share their source,
        # the representative of y
        into_z, z_pos = grouped(tz.tolist(), len(G.objects))
        order = [k for ks in into_z for k in ks]
        found = first_wrong(order, [len(into_z[y]) for y in tz.tolist()],
                            np.array(z_pos + [-1])[place[right]])
        if found is None:
            return True, ()
        row, col, n = found
        z1, z2 = labels[z[order[row]]], labels[z[into_z[tz[order[row]]][col]]]
        return False, ("right-torsor", z1, z2, n)

    checks = (
        ("actions-commute", check_commute),
        ("left-moment-onto", check_left_moment_onto),
        ("right-moment-onto", check_right_moment_onto),
        ("left-free-transitive", check_left_free_transitive),
        ("right-free-transitive", check_right_free_transitive),
    )
    failure = ()
    results = []
    for name, fn in checks:
        ok, wit = fn()
        results.append((name, ok))
        if not ok and not failure:
            failure = wit
    return BimoduleReport(
        all(ok for _, ok in results), tuple(results), len(z), failure
    )
