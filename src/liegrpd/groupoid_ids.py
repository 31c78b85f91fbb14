"""The integer view of a finite groupoid and the verifiers that run on it.

Objects and morphisms are numbered in input order; products of ids come
from a groupoid's `compose_ids`, which for the package's groups composes
permutations or adds residues on demand.  `groupoids.validate_groupoid` is
the one place that decides the groupoid axioms: it runs its pair and
triple loops as numpy index operations on these ids, in chunks of at most
CHUNK entries, and records a generating set, `GroupoidIds.gens`, which a
view in structural mode holds from construction.  The pullback and
bimodule verifiers here validate a groupoid whose generators are not yet
known, so a table that is no groupoid raises validate's AxiomError, and
then check each law on the generators alone; `groupoids` exports them
with the rest of its API.
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


@dataclass(frozen=True)
class Permutations:
    """`multiply(a, b)`: the ids of a o b on arrays of ids, for permutations
    closed under composition and listed in lexicographic order (as
    `symmetric` and `from_permutations` list them).

    a o b is composed as arrays, in chunks of at most CHUNK entries, and
    found among the elements by an exact int64 code, which grows in
    lexicographic order: the images are read in blocks of w columns with
    order * n^w < 2^62, and before each further block the code so far is
    replaced by its rank among the elements' codes, so no code overflows
    for any n.  The codes are set up on the first call.
    """

    elements: tuple

    @cached_property
    def code(self):
        import numpy as np
        perms = np.array(self.elements, dtype=np.int64).reshape(len(self.elements), -1)
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
        return perms, codes, codes(perms)  # the last ascending, as the elements

    def multiply(self, a, b):
        import numpy as np
        perms, codes, ranks = self.code
        n = perms.shape[1]
        step = max(1, CHUNK // max(1, n))
        if len(a) > step:
            return np.concatenate([self.multiply(a[lo:lo + step], b[lo:lo + step])
                                   for lo in range(0, len(a), step)])
        return ranks.searchsorted(codes(perms.ravel()[a[:, None] * n + perms[b]]))  # a[b[i]]


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
    (check, triples) and `gens` the ids of a generating set once
    `groupoids.validate_groupoid` has passed.  The first four are read off
    G's labels unless its builder gives `lists`.

    Given the `action` of the package's own groups whose rows `_checked`
    passed and the ids `gens` of G's generators, the view is in structural
    mode: G is a groupoid by construction, with `gens` known from the start.
    """

    def __init__(self, G, lists=None, action=None, gens=None):
        self.morphisms, self.objects, self.product = G.morphisms, G.objects, G.product
        self.compose = G.compose_ids or self._call_product
        self.associativity = None
        self.action, self.gens, self.structural = action, gens, action is not None
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

    def pair_products(self) -> np.ndarray:
        """The products of all composable pairs, (g, h) at start[g] + pos[h]
        of `pair_index`, computed in chunks of at most CHUNK pairs, g in
        input order and then h.  The first product that is no morphism or
        leaves Hom(d h, r g) raises validate's AxiomError, with its label,
        computed again by the product callable, as the witness's third entry."""
        import numpy as np
        d, r = self.ends
        _, _, _, fan, start = self.pair_index
        table = np.empty(start[-1], dtype=np.int32)
        for lo, hi in chunks(fan):
            g, h = self.pairs(lo, hi)
            table[start[lo]:start[hi]] = k = self.compose(g, h)
            bad = ((d[k] != d[h]) | (r[k] != r[g])).nonzero()[0]
            if len(bad):
                a, b = self.morphisms[g[bad[0]]], self.morphisms[h[bad[0]]]
                raise AxiomError("composite has wrong endpoints", (a, b, self.product(a, b)))
        return table

    def products(self, g, h, table=None):
        """g o h on id arrays, -1 where an id is -1 or a pair does not
        compose: read from a table of `lookup` or `pair_products` when one
        is given, else computed by `compose`."""
        import numpy as np
        if table is not None and table.ndim == 2:
            return table[g, h]
        d, r = self.ends
        if table is None:
            return np.where(d[g] == r[h], self.compose(g, h), -1)
        _, _, pos, _, start = self.pair_index
        return np.where(d[g] == r[h], table.take(start[g] + pos[h], mode="clip"), -1)

    def lookup(self):
        """A matrix of every g o h for `products`, -1 where a pair does not
        compose, with a last row and column for id -1, where that fits one
        chunk (CHUNK entries); else None, and products are composed on demand."""
        import numpy as np
        m = len(self.morphisms)
        if (m + 1) ** 2 > CHUNK:
            return None
        matrix = np.full((m + 1, m + 1), -1, dtype=np.intp)
        g, h = self.after(np.arange(m))
        matrix[g, h] = self.compose(g, h)
        return matrix

    @cached_property
    def units(self):
        """(e, inv): `identities` and `inverses` as arrays."""
        import numpy as np
        return [np.array(v, dtype=np.intp) for v in (self.identities, self.inverses)]

    def check_laws(self, table=None) -> None:
        """Validate's check of the identity and inverse laws: raise at the
        first morphism g for which g o e = g = e o g or g o g^-1 = e = g^-1 o g
        fails, its products read from `table` when one is given, else
        composed (-1 where a pair does not compose, and its law fails)."""
        import numpy as np
        m, (d, r), (e, inv) = len(self.morphisms), self.ends, self.units
        g, e_d, e_r = np.arange(m), e[d[:m]], e[r[:m]]
        expected = np.concatenate((g, g, e_r, e_d))
        found = self.products(np.concatenate((g, e_r, g, inv)), np.concatenate((e_d, g, inv, g)),
                              table)
        bad = ((found != expected) | (expected < 0)).reshape(4, -1)
        identity_bad, bad = bad[0] | bad[1], bad.any(axis=0)
        if bad.any():
            i = int(bad.argmax())
            reason = ("identity law fails" if identity_bad[i]
                      else "missing inverse" if self.inverses[i] < 0 else "inverse law fails")
            raise AxiomError(reason, self.morphisms[i])

    @cached_property
    def out_rows(self):
        """The morphisms out of each object as the rows of one array, padded with -1."""
        return padded(self.out[0])

    def after(self, ids):
        """(g, a): each id a in turn, with every g out of r(a)."""
        gs = self.out_rows[self.ends[1][ids]]
        keep = gs >= 0
        return gs[keep], ids.repeat(keep.sum(axis=1))

    @cached_property
    def schreier(self) -> dict:
        """Generators of each representative's isotropy group: its distinct
        sigma(r a) o a o sigma(d a)^-1 for the generators a out of its orbit
        (Schreier's lemma; Seress, *Permutation Group Algorithms*, 2003, 4.1)."""
        import numpy as np
        d, r = self.ends
        a, sig = self.gens, np.array(self.sigma, dtype=np.intp)
        # each pair composes, so no product needs masking
        loops = self.compose(self.compose(sig[r[a]], a), self.units[1][sig[d[a]]])
        found = {x: {} for x in self.loops}
        for y, k in zip(d[a].tolist(), loops.tolist()):
            found[self.rep[y]][k] = None
        return {x: list(ks) for x, ks in found.items()}


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
    place of y in its orbit, for x in object order, then y in its orbit,
    then h; `triples` lists x, h and y of each pullback id.
    """

    def __init__(self, V: GroupoidIds):
        self.rep = rep = V.rep
        self.orbits, self.spot = grouped(rep, len(rep))
        self.loops = V.loops
        self.loop_at, self.slot = [-1] * (len(V.morphisms) + 1), [-1] * (len(V.morphisms) + 1)
        for r, ids in V.loops.items():
            for k, h in enumerate(ids):
                self.loop_at[h], self.slot[h] = r, k
        self.sigma = V.sigma
        self.size = [len(V.loops[r]) for r in rep]
        *self.base, self.count = itertools.accumulate(
            (len(self.orbits[r]) * k for r, k in zip(rep, self.size)), initial=0)

    @cached_property
    def arrays(self):
        import numpy as np  # one call per length
        return [*np.array([self.rep, self.base, self.spot, self.size], dtype=np.intp),
                *np.array([self.loop_at, self.slot], dtype=np.intp)]

    @cached_property
    def triples(self) -> np.ndarray:
        """The rows target, middle and source: x, h and y of each pullback id."""
        import numpy as np
        target, middle, source = [], [], []
        for x, r in enumerate(self.rep):
            for y in self.orbits[r]:
                target += [x] * self.size[x]
                source += [y] * self.size[x]
                middle += self.loops[r]
        return np.array([target, middle, source], dtype=np.intp).reshape(3, self.count)

    def place(self, x, h, y):
        """The ids of (x, h, y) on arrays, -1 where h is no loop at x's
        representative."""
        import numpy as np
        rep, base, spot, size, loop_at, slot = self.arrays
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


def validated(G: FiniteGroupoid) -> GroupoidIds:
    """G's integer view with its generators `gens`: held by a structural
    view, else recorded by `groupoids.validate_groupoid`, which runs first
    unless it has passed and raises on a table that is no groupoid."""
    from .groupoids import validate_groupoid
    V = G.__dict__.get("ids")  # a view that exists before validation
    if V is None or V.gens is None:
        validate_groupoid(G)
    return G.ids


def pullback_isomorphism_verify(G: FiniteGroupoid) -> PullbackReport:
    """Verify G ~ pullback of its isotropy bundle.

    G is validated first (`validated`), and validate's check of the
    identity and inverse laws (`GroupoidIds.check_laws`) runs again, for a
    structural view, which skips validation, on the products of `lookup`.
    Phi(g) = (r(g), sigma(r(g)) o g o sigma(d(g))^{-1}, d(g))
    and the inverse map is (x, h, y) -> sigma(x)^{-1} o h o sigma(y); both
    directions (the second only where Phi is no bijection, since otherwise
    it follows from the first) and Phi's images of the identities and the
    inverses are checked on every morphism, and the functor law on the
    pairs (g, a), a a generator and g out of r(a): by induction on a word
    for h, that gives Phi(g o h) = Phi(g) o Phi(h) for all h, once Phi
    keeps identities.

    The checks are numpy index operations on products read from the matrix
    of `GroupoidIds.lookup`, or composed on demand, one call per level of
    them.  Phi(g) is held as its middle arrow mid(g), a loop at the orbit
    representative, and its pullback id (-1 outside the pullback).  The
    functor law is checked on middles, mid(g o a) = mid(g) o mid(a), in
    chunks of at most CHUNK pairs, a in generator order, then g; a Phi(g)
    outside the pullback fails every pair of g.  Each check reports the
    first item it flags.
    """
    import numpy as np
    V = validated(G)
    P = PullbackIds(V)  # validated, each object has an arrow to its representative
    table = V.lookup()
    m, n = len(G.morphisms), len(G.objects)
    d, r = V.ends
    src, tgt, g, x = d[:m], r[:m], np.arange(m), np.arange(n)
    (e, inv), sig = V.units, np.array(P.sigma, dtype=np.intp)
    rep = P.arrays[0]
    V.check_laws(table)
    # Phi's middle arrows mid(g) = sigma(r g) o g o sigma(d g)^-1
    mid = V.products(V.products(sig[tgt], g, table), inv[sig[src]], table)
    # Phi(g), Phi(e) as it should be, and (d g, mid(g)^-1, r g), the
    # pullback's inverse of Phi(g)
    ids = P.place(np.concatenate((tgt, x, src)), np.concatenate((mid, e[rep], inv[mid])),
                  np.concatenate((src, x, tgt)))
    image, ident, flipped = ids[:m], ids[m:m + n], ids[m + n:]
    bijective = P.count == m and bool(
        image.min(initial=0) >= 0 and (np.bincount(image, minlength=m) == 1).all())
    # inside the pullback, mid(g) and mid(h) are loops at one representative
    inside = image >= 0
    failure = ()
    pairs = V.after(V.gens)
    for lo in range(0, len(pairs[0]), CHUNK):
        a, b = (col[lo:lo + CHUNK] for col in pairs)
        # a o b, then mid(a) o mid(b)
        k = V.products(np.concatenate((a, mid[a])), np.concatenate((b, mid[b])), table)
        wrong = (~(inside[a] & inside[b]) | (mid[k[:len(a)]] != k[len(a):])).nonzero()[0]
        if len(wrong):
            failure = ("functor", G.morphisms[a[wrong[0]]], G.morphisms[b[wrong[0]]])
            break

    identities_match = bool((image[e] == ident).all())
    inverses_match = bool((inside & (image[inv] == flipped) & (flipped >= 0)).all())
    # sigma(r g)^-1 o mid(g) o sigma(d g) is g; then Phi^-1(p), the product
    # sigma(x)^-1 o h o sigma(y), is sent back to p, which a bijective Phi
    # gives at once: p is some Phi(g), so Phi^-1(p) is g
    trip = V.products(inv[sig[tgt]], V.products(mid, sig[src], table), table)
    round_trip = bool((trip == g).all())
    if round_trip and not bijective:
        target, middle, source = P.triples
        back = V.products(inv[sig[target]], V.products(middle, sig[source], table), table)
        round_trip = bool((back >= 0).all() and (image[back] == np.arange(P.count)).all())
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
    the right at the source representative.  G is validated first
    (`validated`); then these are checked:
      1. the two actions commute;
      2. the left moment map r: Z -> objects is surjective;
      3. the right moment map d: Z -> representatives is surjective;
      4. G acts freely and transitively on the fibers of d restricted to
         each orbit (one arrow between any two Z-elements sharing a source);
      5. the bundle acts freely and transitively on the fibers of r.

    Both actions are tabulated once on the integer view, for generators
    only, aligned by position in rows padded with -1: left[k] lists g o z_k
    for the generators g out of r(z_k), and right[k] lists z_k o b for b in
    `GroupoidIds.schreier` at d(z_k), which generate the isotropy there.
    Every product is an element of Z, whose own row is then at hand.
    Check 1 runs over every (z, g, b) in chunks of rows and compares
    (g o z) o b, read from right[g o z], with g o (z o b), read from
    left[z o b].  Checks 4 and 5 walk each fiber along the rows from its
    identity or first element, and each z's acting set must be as large as
    its fiber, so that the transitive action is free; the witness is the
    first z that fails, its start and its acting set's size (0 if not
    reached).
    """
    import numpy as np
    V = validated(G)
    labels, loops, out = G.morphisms, V.loops, V.out[0]
    z = [g for g, x in enumerate(V.sources) if x in loops]
    place = [-1] * (len(labels) + 1)  # id -1 reads -1
    for k, g in enumerate(z):
        place[g] = k
    # gs[k] and bs[k] list the generators g out of r(z_k) and b of the
    # isotropy at d(z_k), left[k] and right[k] the products g o z_k and
    # z_k o b, with -1 as padding
    tz, sz = [V.targets[g] for g in z], [V.sources[g] for g in z]
    gens = V.gens.tolist()
    lefts = grouped(V.ends[0][V.gens].tolist(), len(G.objects))[0]  # places in gens
    gs, bs = [[gens[i] for i in lefts[y]] for y in tz], [V.schreier[x] for x in sz]
    firsts = np.array([g for row in gs for g in row] + [k for k, row in zip(z, bs) for _ in row],
                      dtype=np.intp)
    seconds = np.array([k for k, row in zip(z, gs) for _ in row] + [b for row in bs for b in row],
                       dtype=np.intp)
    found = V.compose(firsts, seconds)
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

    def walk(name, rows, start, acting, fiber):
        """Checks 4 and 5: rows[k] holds the places one step from z_k, and
        start[k] the place its fiber is walked from."""
        steps, reached, todo = rows.tolist(), [False] * len(z) + [True], list(start)
        while todo:  # padding reads place -1, reached from the start
            k = todo.pop()
            if not reached[k]:
                reached[k] = True
                todo += steps[k]
        for k, (a, b) in enumerate(zip(acting, fiber)):
            if not reached[k] or a != b:
                return False, (name, labels[z[start[k]]], labels[z[k]], a * reached[k])
        return True, ()

    def check_left_free_transitive():
        sizes, e = [len(ids) for ids in out], V.identities
        return walk("left-torsor", place[left], [place[e[x]] for x in sz.tolist()],
                    [sizes[y] for y in tz.tolist()], [sizes[x] for x in sz.tolist()])

    def check_right_free_transitive():
        # the Z-elements into y share their source, the representative of y
        into_z = grouped(tz.tolist(), len(G.objects))[0]
        return walk("right-torsor", place[right], [into_z[y][0] for y in tz.tolist()],
                    [len(loops[x]) for x in sz.tolist()], [len(into_z[y]) for y in tz.tolist()])

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
