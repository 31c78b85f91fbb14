"""Finite groupoids: validation, transformation groupoids, pullback structure.

A finite groupoid is stored as its source/target tables and a product rule
and validated exhaustively, associativity on its generators where it has
them.  `compose(g, h)` is "h then g" and is defined
exactly when d(g) = r(h).  The central constructions: canonical sections onto
orbit representatives, the pullback of the isotropy bundle along the
orbit-representative map together with an exhaustively verified isomorphism,
a linking bimodule witnessing the equivalence with the bundle, the piecewise
version over an invariant filtration, the block profile of the groupoid
algebra, and the regular representation rank test at a base object.

Every groupoid also has an integer view, `G.ids` (`groupoid_ids`): objects
and morphisms numbered in input order, and products of ids from a table.
It is the groupoid's only index: arrow lists, hom-sets, the classification
and the pullback's morphisms are read off it.  Transformation groupoids
compute it from their action's integer rows and multiply through their
group's table (mult[g, h] |X| + x), full subgroupoids and pullbacks read it
from their parent's, explicit documents from their composition list; a
groupoid built around an arbitrary product callable calls it once per pair
asked for.  The
exhaustive verifiers run their pair and triple loops on this view as numpy
index operations, in chunks, visiting items in the order of the label loops
they replaced.  Each refuses a product outside its hom-set with
validate's AxiomError("composite has wrong endpoints", ...); on every
other table, with identities and inverses in their hom-sets, a failure
reports the label loops' verdict and witness.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property

from .exact import document_int
from .groupoid_ids import (  # the verifiers and reports are part of this module's API
    CHUNK,
    AxiomError,
    BimoduleReport,
    GroupoidIds,
    NotInvariant,
    PullbackIds,
    PullbackReport,
    chunks,
    cyclic_table,
    equivalence_bimodule_verify,
    grouped,
    padded,
    permutation_table,
    pullback_isomorphism_verify,
)


# ---------------------------------------------------------------------------
# finite groups


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group with explicit element list and callable operations.

    `generators`, when given, is a tuple of elements whose closure under `op`
    is `elements`; `FiniteGroupAction.make` then checks compatibility on
    them.  The default None stands for every element.  `tabulate`, when
    given, builds the multiplication table from the elements at once; the
    default None calls `op` on every pair.
    """

    name: str
    elements: tuple
    op: object  # callable (a, b) -> ab
    inv: object  # callable a -> a^{-1}
    identity: object
    generators: tuple | None = None
    tabulate: object = field(default=None, repr=False)  # callable elements -> table

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict:  # element -> its place in `elements`
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def table(self) -> np.ndarray:
        """mult[a, b] = index of ab, for elements numbered in input order."""
        import numpy as np
        if self.tabulate is not None:
            return self.tabulate(self.elements)
        index, op = self.index, self.op
        return np.array(
            [[index[op(a, b)] for b in self.elements] for a in self.elements],
            dtype=np.int32,
        ).reshape(self.order, self.order)

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("cyclic group needs n >= 1")
        return FiniteGroup(
            f"C{n}",
            tuple(range(n)),
            lambda a, b: (a + b) % n,
            lambda a: (-a) % n,
            0,
            (1 % n,),
            cyclic_table,
        )

    @staticmethod
    def symmetric(n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("symmetric group needs n >= 1")
        elements = tuple(sorted(itertools.permutations(range(n))))
        # the n-cycle i -> i + 1 and the transposition (0 1) generate S_n
        cycle = tuple((i + 1) % n for i in range(n))
        swap = (1, 0) + tuple(range(2, n))
        return FiniteGroup(
            f"S{n}",
            elements,
            _compose_permutations,
            lambda p: tuple(sorted(range(n), key=p.__getitem__)),
            tuple(range(n)),
            (cycle, swap) if n > 2 else (cycle,),
            permutation_table,
        )

    @staticmethod
    def from_permutations(generators, n: int, name: str = "perm",
                          max_order: int | None = None) -> "FiniteGroup":
        """Subgroup of the symmetric group generated by the given permutations;
        a closure that passes `max_order` elements raises the table-shape error."""
        if n < 0:
            raise ValueError("permutation group needs n >= 0")
        identity = tuple(range(n))
        compose = _compose_permutations
        gens = tuple(tuple(g) for g in generators)
        for g in gens:
            if sorted(g) != list(range(n)):
                raise AxiomError("generator is not a permutation", g)
        closure = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = compose(g, a)
                    if b not in closure:
                        closure.add(b)
                        nxt.append(b)
                if max_order is not None and len(closure) > max_order:
                    raise AxiomError(_WRONG_SHAPE)
            frontier = nxt
        return FiniteGroup(
            name,
            tuple(sorted(closure)),
            compose,
            lambda p: tuple(sorted(range(n), key=p.__getitem__)),
            identity,
            gens,
            permutation_table,
        )

    def conjugacy_class_count(self) -> int:
        seen = set()
        count = 0
        for a in self.elements:
            if a in seen:
                continue
            count += 1
            for h in self.elements:
                seen.add(self.op(self.op(h, a), self.inv(h)))
        return count

    def is_abelian(self) -> bool:
        return all(
            self.op(a, b) == self.op(b, a)
            for a in self.elements
            for b in self.elements
        )


def _compose_permutations(p, q):
    """p after q, for permutations as tuples of images."""
    return tuple(map(p.__getitem__, q))


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


# ---------------------------------------------------------------------------
# group actions


@dataclass(frozen=True, eq=False)
class FiniteGroupAction:
    """An action on distinct points as integer rows, built by `make` and
    `action_from_json`: rows[i][j] is the place of g_i.x_j among the points."""

    group: FiniteGroup
    points: tuple
    rows: list

    @cached_property
    def table(self) -> dict:
        """(element, point) -> point, elements before points."""
        points = self.points
        return {(g, x): points[y] for g, row in zip(self.group.elements, self.rows)
                for x, y in zip(points, row)}

    def act(self, g, x):
        return self.table[(g, x)]

    @staticmethod
    def make(group: FiniteGroup, points, act) -> "FiniteGroupAction":
        """Build and check the action from a callable or a mapping, read at
        every (g, x), elements before points; each value must be a point."""
        points = _distinct(points)
        index = {x: i for i, x in enumerate(points)}
        fn = act if callable(act) else lambda g, x: act[g, x]
        values = [[fn(g, x) for x in points] for g in group.elements]
        for g, x, y in ((g, x, y) for g, row in zip(group.elements, values)
                        for x, y in zip(points, row) if y not in index):
            raise AxiomError("action leaves the point set", (g, x, y))
        return _checked(group, points, [[index[y] for y in row] for row in values])


def _distinct(points) -> tuple:
    points = tuple(points)
    if len(set(points)) != len(points):
        repeated = next(p for i, p in enumerate(points) if p in points[:i])
        raise ValueError(f"point {_element_to_json(repeated)!r} is listed twice")
    return points


def _checked(group: FiniteGroup, points: tuple, rows: list) -> FiniteGroupAction:
    """The action with these rows, once every entry is an int in range (else
    `_at`'s ValueError), the identity row is 0..n-1 and rows[g h] =
    [rows[g][y] for y in rows[h]] for every g and every generator h (every
    h without generators): by induction on the length of h as a word in the
    generators, that decides every pair.  When it fails, the check reruns on
    every pair, so the witness (g, h, x) is the first violation over all."""
    n, elements, index = len(points), group.elements, group.index
    for y in (y for row in rows for y in row if type(y) is not int or not 0 <= y < n):
        _at(points, y, "action table")  # raises
    moved = [x for j, (x, y) in enumerate(zip(points, rows[index[group.identity]])) if y != j]
    if moved:
        raise AxiomError("identity moves a point", moved[0])

    def first_incompatible(hs):
        """The first (g, h, x) with rows[g h][x] != rows[g][rows[h][x]], or None."""
        for g, row in zip(elements, rows):
            for h in hs:
                gh, hx = rows[index[group.op(g, h)]], rows[index[h]]
                if list(map(row.__getitem__, hx)) != gh:
                    return g, h, points[next(j for j, y in enumerate(hx) if row[y] != gh[j])]

    if first_incompatible(group.generators or elements):
        witness = first_incompatible(elements)
        if witness is None:
            raise AssertionError("the generator check failed on a compatible action")
        raise AxiomError("action is not compatible", witness)
    return FiniteGroupAction(group, points, rows)


# ---------------------------------------------------------------------------
# finite groupoids


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    """Groupoid given by a product rule; `compose(g, h)` means "h then g".

    `product` is called only on composable pairs.  The one index is the
    integer view `ids` (see `GroupoidIds`), built on first use once the
    source/target tables are total: `out_of` and `into` label its groups of
    arrows by source and by target, in morphism input order, and `hom`
    filters `out_of`.  `compose_ids`, when given, computes products on that
    view; the default None calls `product` on each pair asked for.
    `validate_groupoid` decides associativity on `generators`, when given.
    """

    objects: tuple
    morphisms: tuple
    source: dict  # d
    target: dict  # r
    product: object  # callable (g, h) -> g o h, defined iff d(g) = r(h)
    identities: dict  # object -> morphism
    inverses: dict  # morphism -> morphism
    compose_ids: object = field(default=None, repr=False)  # (g ids, h ids) -> ids
    generators: tuple | None = field(default=None, repr=False)

    def compose(self, g, h):
        return self.product(g, h)

    @cached_property
    def ids(self) -> "GroupoidIds":
        """The integer view; source and target must be total and in `objects`."""
        return GroupoidIds(self)

    def _labelled(self, groups) -> dict:
        mors = self.morphisms
        return {x: tuple(mors[g] for g in ids) for x, ids in zip(self.objects, groups) if ids}

    @cached_property
    def out_of(self) -> dict:
        """Object -> morphisms with that source."""
        return self._labelled(self.ids.out[0])

    @cached_property
    def into(self) -> dict:
        """Object -> morphisms with that target."""
        return self._labelled(self.ids.into[0])

    def hom(self, x, y) -> tuple:
        """Morphisms from x to y (d = x, r = y) in input order."""
        return tuple(g for g in self.out_of.get(x, ()) if self.target[g] == y)

    def composable_pairs(self):
        """Every (g, h) with d(g) = r(h): g in input order, then h."""
        return ((g, h) for g in self.morphisms for h in self.into.get(self.source[g], ()))

    def isotropy_group(self, x) -> FiniteGroup:
        return FiniteGroup(f"iso@{x!r}", self.hom(x, x), self.product,
                           self.inverses.__getitem__, self.identities[x])


TRIPLE_CAP = 2_000_000  # composable triples either associativity check visits at most


def _refuse_over_cap(triples, check: str) -> None:
    total = int(triples.sum())
    if total > TRIPLE_CAP:
        raise ValueError(f"{total} composable triples exceed the {check}-check cap of {TRIPLE_CAP}")


def _generates(V: GroupoidIds, table, gens) -> bool:
    """Whether the composites a1 o ... o an of the generator ids, read from
    the pair table of `GroupoidIds.pair_products`, reach every morphism."""
    import numpy as np
    d, r = V.ends
    _, _, pos, _, start = V.pair_index
    # the generators ending at each object, padded with -1
    into = np.append(gens, -1)[padded(grouped(r[gens].tolist(), len(V.objects))[0])]
    reached = np.zeros(len(V.morphisms), dtype=bool)
    reached[gens] = True
    frontier = reached.nonzero()[0]
    while len(frontier):
        a = into[d[frontier]]
        f, a = frontier.repeat(a.shape[1]), a.ravel()
        hit = np.zeros_like(reached)
        hit[table[start[f[a >= 0]] + pos[a[a >= 0]]]] = True
        frontier = (hit & ~reached).nonzero()[0]
        reached |= hit
    return bool(reached.all())


def validate_groupoid(G: FiniteGroupoid) -> None:
    """Axiom check; AxiomError carries a witness tuple.

    After the label checks every loop runs on the integer view, in chunks
    of at most CHUNK entries: `GroupoidIds.pair_products` computes the
    products of all composable pairs, g in input order and then h, once
    into a table and refuses the first one outside its hom-set; the table
    is then read for the identity and inverse laws of each morphism and
    for associativity.  With generators A, that is Light's test (Clifford
    and Preston, *The Algebraic Theory of Semigroups* I, 1961, 1.2):
    (g o a) o k = g o (a o k) for a in A, g out of r(a) and k into d(a).
    The middles that pass are closed under composition, so it is exact
    once a closure walk over the table shows that A generates.  Otherwise,
    or when it fails, each triple (g, h, k) is checked in the label loops'
    order, so a failure gives their witness.  A check of more than
    TRIPLE_CAP triples is refused, counted before any product is computed
    (and again before generators fall back to every triple).
    `G.ids.associativity` records the check that passed and its triples.
    """
    import numpy as np
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
    V = G.ids
    labels = G.morphisms
    d, r = V.ends
    ptr, items, pos, fan, start = V.pair_index
    src, tgt = d[:len(labels)], r[:len(labels)]
    # triples (g, h, k) of g: sum over the h into d(g) of |into(d(h))|
    triples = np.bincount(tgt, weights=fan, minlength=len(G.objects)).astype(np.int64)[src]
    gens = np.array([V.index[a] for a in G.generators or () if a in V.index], dtype=np.intp)
    light = G.generators is not None and len(gens) == len(G.generators)
    # Light's test visits (g, a, k) for the g out of r(a) and the k into d(a)
    visits = np.bincount(src, minlength=len(G.objects))[tgt[gens]] * fan[gens]
    _refuse_over_cap(visits if light else triples, "generator" if light else "exhaustive")
    table = V.pair_products()  # the product of (g, h) at start[g] + pos[h]
    identity_bad, inverse_bad = V.law_failures(table)
    bad = identity_bad | inverse_bad
    if np.count_nonzero(bad):
        i = int(bad.argmax())
        reason = ("identity law fails" if identity_bad[i]
                  else "missing inverse" if V.inverses[i] < 0 else "inverse law fails")
        raise AxiomError(reason, labels[i])
    if light and _generates(V, table, gens):
        # the g out of r(a) and the k into d(a), padded with -1, which reads
        # clipped indices and is masked out
        gs = padded([V.out[0][y] for y in tgt[gens].tolist()])
        ks = padded([V.into[0][x] for x in src[gens].tolist()])
        step = max(1, CHUNK // max(1, gs.shape[1] * ks.shape[1]))
        for lo in range(0, len(gens), step):
            a, g, k = gens[lo:lo + step, None], gs[lo:lo + step], ks[lo:lo + step]
            ga = table.take(start[g] + pos[a], mode="clip")
            ak = table.take(start[a] + pos[k], mode="clip")
            lhs = table.take(start[ga][:, :, None] + pos[k][:, None, :], mode="clip")
            rhs = table.take(start[g][:, :, None] + pos[ak][:, None, :], mode="clip")
            if np.count_nonzero((lhs != rhs) & (g >= 0)[:, :, None] & (k >= 0)[:, None, :]):
                break
        else:
            V.associativity = "generators", int(visits.sum())
            return
    _refuse_over_cap(triples, "exhaustive")
    for lo, hi in chunks(triples):
        g, h = V.pairs(lo, hi)
        gh = table[start[g] + pos[h]]
        n = fan[h]
        h, g, gh = h.repeat(n), g.repeat(n), gh.repeat(n)
        k = items[np.arange(len(h)) - np.concatenate(([0], n.cumsum()))[:-1].repeat(n) + ptr[d[h]]]
        hk = table[start[h] + pos[k]]
        bad = table[start[gh] + pos[k]] != table[start[g] + pos[hk]]
        if np.count_nonzero(bad):
            i = int(bad.argmax())
            raise AxiomError("associativity fails", (labels[g[i]], labels[h[i]], labels[k[i]]))
    V.associativity = "exhaustive", int(triples.sum())


def transformation_groupoid(A: FiniteGroupAction) -> FiniteGroupoid:
    """Morphisms (g, x): x -> g.x; (g2, g1.x) o (g1, x) = (g2 g1, x).

    (g, x) has id i |X| + j for g the i-th element and x the j-th point, so
    products of ids are mult[i2, i1] |X| + j, read from the group's table,
    and the view's id lists and the label dicts are read off the rows.
    Its generators are the (s, x) for s a generator of the group.
    """
    import numpy as np
    group, points, rows = A.group, A.points, A.rows
    op, n, order, e = group.op, len(points), group.order, group.index[group.identity]
    inv = [group.index[group.inv(g)] for g in group.elements]
    mors = tuple(itertools.product(group.elements, points))
    targets = [y for row in rows for y in row]
    inverses = [i * n + y for i, row in zip(inv, rows) for y in row]

    def compose_ids(g, h):
        i, x = np.divmod(h, n)
        return group.table.ravel()[g // n * order + i] * n + x

    G = FiniteGroupoid(
        points,
        mors,
        dict(zip(mors, points * order)),
        dict(zip(mors, map(points.__getitem__, targets))),
        lambda g2, g1: (op(g2[0], g1[0]), g1[1]),
        dict(zip(points, mors[e * n:e * n + n])),
        dict(zip(mors, map(mors.__getitem__, inverses))),
        compose_ids,
        None if group.generators is None else tuple(
            (s, x) for s in group.generators for x in points),
    )
    # fills the cached `ids`; a copy made by dataclasses.replace reads its labels
    G.__dict__["ids"] = GroupoidIds(G, (list(range(n)) * order, targets,
                                        list(range(e * n, e * n + n)), inverses))
    return G


def pair_groupoid(objects) -> FiniteGroupoid:
    """Exactly one morphism (y, x): x -> y between any two objects."""
    objects = tuple(objects)
    mors = tuple((y, x) for y in objects for x in objects)
    return FiniteGroupoid(
        objects,
        mors,
        {m: m[1] for m in mors},
        {m: m[0] for m in mors},
        lambda g, h: (g[0], h[1]),
        {x: (x, x) for x in objects},
        {(y, x): (x, y) for (y, x) in mors},
    )


def group_bundle(groups: dict, objects) -> FiniteGroupoid:
    """Disjoint union of groups sitting over the given objects (d = r)."""
    objects = tuple(objects)
    mors = tuple((x, a) for x in objects for a in groups[x].elements)
    base = {m: m[0] for m in mors}
    return FiniteGroupoid(
        objects,
        mors,
        base,
        base,
        lambda g, h: (g[0], groups[g[0]].op(g[1], h[1])),
        {x: (x, groups[x].identity) for x in objects},
        {(x, a): (x, groups[x].inv(a)) for (x, a) in mors},
    )


# ---------------------------------------------------------------------------
# orbits, reductions, classification


@dataclass(frozen=True)
class OrbitReport:
    representatives: tuple  # least object of each orbit, in object input order
    orbits: tuple  # tuple of object tuples, aligned with representatives
    representative_of: tuple  # (object, representative) pairs
    isotropy_orders: tuple


def orbits_isotropy(G: FiniteGroupoid) -> OrbitReport:
    V, objects = G.ids, G.objects
    orbits = grouped(V.rep, len(objects))[0]
    reps = list(V.loops)
    return OrbitReport(
        tuple(objects[r] for r in reps),
        tuple(tuple(objects[x] for x in orbits[r]) for r in reps),
        tuple((x, objects[r]) for x, r in zip(objects, V.rep)),
        tuple(len(V.loops[r]) for r in reps),
    )


def reduce_invariant(G: FiniteGroupoid, subset) -> FiniteGroupoid:
    """Full subgroupoid over an invariant object subset, with the generators
    of G out of the subset: no composite of generators crosses an invariant
    subset, so those generate it (and `validate_groupoid` checks that).
    A subset that covers every object gives G itself."""
    sub = set(subset)
    subset_list = tuple(x for x in G.objects if x in sub)
    if len(subset_list) == len(G.objects):
        return G
    for g in G.morphisms:
        if (G.source[g] in sub) != (G.target[g] in sub):
            raise NotInvariant("subset is not invariant", g, G.source[g], G.target[g])
    mors = tuple(g for g in G.morphisms if G.source[g] in sub)
    return FiniteGroupoid(
        subset_list,
        mors,
        {g: G.source[g] for g in mors},
        {g: G.target[g] for g in mors},
        G.product,
        {x: G.identities[x] for x in subset_list},
        {g: G.inverses[g] for g in mors},
        _restricted_compose(G, mors),
        None if G.generators is None else tuple(a for a in G.generators if G.source[a] in sub),
    )


def _restricted_compose(G: FiniteGroupoid, mors):
    """compose_ids on the morphisms `mors` of G, read from G's: each id maps
    to G's id and back, and a product outside `mors` is no morphism."""
    import numpy as np

    @functools.cache
    def maps():
        parent = np.array([G.ids.index[m] for m in mors], dtype=np.intp)
        back = np.full(len(G.morphisms) + 1, -1, dtype=np.intp)  # so id -1 maps to -1
        back[parent] = np.arange(len(parent))
        return parent, back

    def compose(g, h):
        parent, back = maps()
        return back[G.ids.compose(parent[g], parent[h])]

    return compose


@dataclass(frozen=True)
class Classification:
    is_group_bundle: bool  # every morphism fixes its object
    is_transitive: bool  # a single orbit
    is_pair: bool  # exactly one morphism between any two objects
    is_principal: bool  # transitive with trivial isotropy
    orbit_count: int


def classify(G: FiniteGroupoid) -> Classification:
    rep = orbits_isotropy(G)
    V = G.ids
    bundle = V.sources == V.targets
    transitive = len(rep.representatives) == 1
    # n^2 arrows with distinct endpoints cover each pair of n objects once
    pair = len(G.morphisms) == len(G.objects) ** 2 == len(set(zip(V.sources, V.targets)))
    principal = transitive and all(n == 1 for n in rep.isotropy_orders)
    return Classification(bundle, transitive, pair, principal, len(rep.representatives))


# ---------------------------------------------------------------------------
# canonical sections, pullback isomorphism


def canonical_sections(G: FiniteGroupoid):
    """(representative map theta, section sigma) with sigma(x): x -> theta(x).

    sigma(x) is the first morphism in input order from x to its orbit
    representative; on representatives the identity is chosen.
    """
    V, objects = G.ids, G.objects
    theta, sigma = {}, {}
    for i, (x, r, s) in enumerate(zip(objects, V.rep, V.sigma)):
        theta[x] = objects[r]
        if i == r:
            sigma[x] = G.identities[x]
        elif s < 0:
            raise AxiomError("no morphism from object to its representative", x)
        else:
            sigma[x] = G.morphisms[s]
    return theta, sigma


def build_pullback(G: FiniteGroupoid):
    """Pullback of the isotropy bundle along the representative map.

    Objects are those of G; a morphism (x, h, y): y -> x carries an isotropy
    element h at the shared representative of x and y.  The morphisms are
    the target, middle and source lists of `PullbackIds` labelled, so their
    order is written there alone, and products of ids are G's, placed by
    it.  The generators are the loops (r, h, r) at each representative r
    and, for each other x in its orbit, (x, e_r, r) and (r, e_r, x): every
    (x, h, y) is (x, e_r, r) o (r, h, r) o (r, e_r, y).
    """
    theta, _ = canonical_sections(G)  # refuses an object with no arrow to its representative
    V = G.ids
    P = PullbackIds(V)
    objs, labels = G.objects, G.morphisms
    mors = tuple((objs[x], labels[h], objs[y]) for x, h, y in zip(P.target, P.middle, P.source))
    e = {x: G.identities[theta[x]] for x in objs}  # the identity at x's representative
    loops = tuple((objs[r], labels[h], objs[r]) for r, hs in V.loops.items() for h in hs)
    links = tuple(m for x in objs if x != theta[x]
                  for m in ((x, e[x], theta[x]), (theta[x], e[x], x)))

    def compose_ids(p, q):
        target, middle, source = P.arrays[6:]
        return P.place(target[p], V.compose(middle[p], middle[q]), source[q])

    return FiniteGroupoid(
        objs,
        mors,
        {m: m[2] for m in mors},
        {m: m[0] for m in mors},
        lambda a, b: (a[0], G.compose(a[1], b[1]), b[2]),
        {x: (x, e[x], x) for x in objs},
        {(x, h, y): (y, G.inverses[h], x) for (x, h, y) in mors},
        compose_ids,
        loops + links,
    )


# ---------------------------------------------------------------------------
# piecewise decomposition


@dataclass(frozen=True)
class PiecewiseReport:
    representatives: tuple
    orbit_sizes: tuple
    ideal_dims: tuple  # morphism counts of the increasing invariant pieces
    layer_pullback_ok: tuple  # pullback verification per single-orbit layer
    total_morphisms: int


def piecewise_decompose(G: FiniteGroupoid) -> PiecewiseReport:
    """Filter by unions of orbits; each layer is transitive, hence a pullback.

    The increasing invariant subsets give a chain of ideals in the groupoid
    algebra whose dimensions are the morphism counts reported here.
    """
    rep, V = orbits_isotropy(G), G.ids
    orbits, out = grouped(V.rep, len(G.objects))[0], V.out[0]
    ideal_dims = []
    layer_ok = []
    arrows = 0
    for r, orbit in zip(V.loops, rep.orbits):
        # a union of orbits is invariant: its arrows are those out of it
        arrows += sum(len(out[x]) for x in orbits[r])
        ideal_dims.append(arrows)
        layer = reduce_invariant(G, orbit)
        layer_ok.append(pullback_isomorphism_verify(layer).ok)
    return PiecewiseReport(
        rep.representatives,
        tuple(len(o) for o in rep.orbits),
        tuple(ideal_dims),
        tuple(layer_ok),
        len(G.morphisms),
    )


# ---------------------------------------------------------------------------
# algebra profile and the regular representation


@dataclass(frozen=True)
class AlgebraProfile:
    blocks: tuple  # (representative, orbit_size, isotropy_order, block_dim, irrep_count)
    total_dim: int
    matches_morphism_count: bool
    dual_total: int  # number of matrix blocks of the groupoid algebra


def algebra_profile(G: FiniteGroupoid) -> AlgebraProfile:
    """Per-orbit block data: |orbit|^2 * |isotropy| sums to |morphisms|."""
    rep = orbits_isotropy(G)
    blocks = []
    total = 0
    dual = 0
    for r, orbit in zip(rep.representatives, rep.orbits):
        iso = G.isotropy_group(r)
        block_dim = len(orbit) ** 2 * iso.order
        irreps = iso.conjugacy_class_count()
        blocks.append((r, len(orbit), iso.order, block_dim, irreps))
        total += block_dim
        dual += irreps
    return AlgebraProfile(
        tuple(blocks), total, total == len(G.morphisms), dual
    )


@dataclass(frozen=True)
class RegularRepReport:
    base_object: object
    faithful: bool
    rank: int
    morphism_count: int
    orbit_covers_objects: bool


def regular_representation_faithful(G: FiniteGroupoid, x) -> RegularRepReport:
    """Left regular representation at x: faithful iff the orbit of x is everything.

    Each morphism g becomes a 0/1 matrix on the arrows out of x (a(g)[u, v] = 1
    iff u = g o v); the representation of the groupoid algebra is faithful
    exactly when these matrices are linearly independent.  In a groupoid
    g o v = g' o v forces g = g', so the matrices have pairwise disjoint
    supports and their rank is the number of nonzero ones: the cells (g o v, v)
    are counted in a set, where a repeated cell raises AxiomError.  The
    verdict is cross-checked against orbit coverage.
    """
    arrows = G.out_of.get(x, ())
    cells, used = set(), set()
    for v in arrows:
        for g in G.out_of[G.target[v]]:
            cell = (G.compose(g, v), v)
            if cell in cells:
                raise AxiomError("left cancellation fails", (g, v))
            cells.add(cell)
            used.add(g)
    faithful = len(used) == len(G.morphisms)
    orbit = {G.target[a] for a in arrows} | {x}
    covers = orbit == set(G.objects)
    if faithful != covers:
        raise AssertionError(
            "regular representation rank disagrees with orbit coverage"
        )
    return RegularRepReport(x, faithful, len(used), len(G.morphisms), covers)


# ---------------------------------------------------------------------------
# random instances


RANDOM_GROUP_MAX_POINTS = 6
RANDOM_GROUP_MAX_ORDER = 8


def random_permutation_group(rng: random.Random) -> FiniteGroup:
    """Small subgroup of a symmetric group from random generators."""
    for _ in range(200):
        n = rng.randint(2, RANDOM_GROUP_MAX_POINTS)
        gens = []
        for _ in range(rng.randint(1, 2)):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        group = FiniteGroup.from_permutations(gens, n, name=f"rand{n}")
        if group.order <= RANDOM_GROUP_MAX_ORDER:
            return group
    return FiniteGroup.cyclic(rng.randint(2, 4))


def random_transformation_groupoid(rng: random.Random) -> FiniteGroupoid:
    """Transformation groupoid of a random permutation group action.

    The group permutes its natural points plus a few fixed points, so both
    transitive and multi-orbit shapes occur.
    """
    group = random_permutation_group(rng)
    n = len(group.identity) if isinstance(group.identity, tuple) else 0
    extra = rng.randint(0, 2)
    if n:
        points = list(range(n + extra))
        act = lambda g, x: g[x] if x < n else x
    else:
        m = group.order
        points = list(range(m + extra))
        act = lambda g, x: (x + g) % m if x < m else x
    action = FiniteGroupAction.make(group, points, act)
    return transformation_groupoid(action)


# ---------------------------------------------------------------------------
# JSON serialization


def _element_to_json(e):
    return list(e) if isinstance(e, tuple) else e


def _at(items, index, what: str):
    """items[index] for an index read from a document; no negative wrap-around."""
    if not 0 <= document_int(index, f"{what} index") < len(items):
        raise ValueError(f"{what} index {index!r} is outside 0..{len(items) - 1}")
    return items[index]


_WRONG_SHAPE = "action table has wrong shape"


def group_to_json(G: FiniteGroup) -> dict:
    if G.name.startswith("C") and G.name[1:].isdigit():
        return {"family": "cyclic", "n": int(G.name[1:])}
    if G.name.startswith("S") and G.name[1:].isdigit():
        return {"family": "symmetric", "n": int(G.name[1:])}
    n = len(G.identity)
    gens = [list(e) for e in G.elements]
    return {"family": "permutations", "n": n, "generators": gens}


MAX_PERMUTATION_DEGREE = 128


def group_from_json(data: dict, order: int) -> FiniteGroup:
    """The group of an action document whose table has `order` rows; a cyclic
    or symmetric group of another order, or a closure that passes `order`,
    raises the table-shape error before more elements are listed, and a
    `permutations` degree above MAX_PERMUTATION_DEGREE a ValueError before
    anything of that size is built."""
    family = data["family"]
    n = document_int(data["n"], "group n")
    if family == "permutations" and n > MAX_PERMUTATION_DEGREE:
        raise ValueError(f"permutation degree {n} exceeds the limit {MAX_PERMUTATION_DEGREE}")
    if n >= 1 and family in ("cyclic", "symmetric"):
        size, k = (n, n) if family == "cyclic" else (1, 1)
        while k < n and size <= order:  # n!, multiplied up only until it passes order
            k += 1
            size *= k
        if size != order:
            raise AxiomError(_WRONG_SHAPE)
    if family == "cyclic":
        return FiniteGroup.cyclic(n)
    if family == "symmetric":
        return FiniteGroup.symmetric(n)
    if family == "permutations":
        gens = [[document_int(x, "generator entry") for x in g] for g in data["generators"]]
        return FiniteGroup.from_permutations(gens, n, max_order=order)
    raise ValueError(f"unknown group family {family!r}")


def action_to_json(A: FiniteGroupAction) -> dict:
    return {
        "kind": "group_action",
        "group": group_to_json(A.group),
        "points": list(A.points),
        "table": [list(row) for row in A.rows],
    }


def action_from_json(data: dict) -> FiniteGroupAction:
    if data.get("kind") != "group_action":
        raise ValueError("not a group action document")
    group = group_from_json(data["group"], len(data["table"]))
    points = _distinct(tuple(p) if isinstance(p, list) else p for p in data["points"])
    table = data["table"]
    if len(table) != group.order or any(len(row) != len(points) for row in table):
        raise AxiomError(_WRONG_SHAPE)
    return _checked(group, points, [list(row) for row in table])


def groupoid_to_json(G: FiniteGroupoid) -> dict:
    """G as a document; `composition` is the pair table, g in input order, then h."""
    import numpy as np
    V = G.ids
    return {
        "kind": "groupoid",
        "objects": [_element_to_json(x) for x in G.objects],
        "morphism_count": len(G.morphisms),
        "source": list(V.sources),
        "target": list(V.targets),
        "composition": np.stack([*V.pairs(0, len(G.morphisms)), V.pair_products()],
                                axis=1).tolist(),
        "identities": list(V.identities),
        "inverses": list(V.inverses),
    }


def groupoid_from_json(data: dict) -> FiniteGroupoid:
    import numpy as np
    if data.get("kind") != "groupoid":
        raise ValueError("not a groupoid document")
    objects = tuple(tuple(x) if isinstance(x, list) else x for x in data["objects"])
    count = document_int(data["morphism_count"], "morphism_count")
    for key, n in (("source", count), ("target", count), ("inverses", count),
                   ("identities", len(objects))):
        if len(data[key]) != n:
            raise ValueError(f"{key} has {len(data[key])} entries, expected {n}")
    mors = tuple(range(count))
    source = {m: _at(objects, data["source"][m], "source") for m in mors}
    target = {m: _at(objects, data["target"][m], "target") for m in mors}
    table = {}
    for entry in data["composition"]:
        g, h, k = (document_int(x, "composition entry") for x in entry)
        if (g, h) in table:
            raise ValueError(f"composition lists the pair {[g, h]} twice")
        table[g, h] = k
    identities = {
        objects[i]: document_int(data["identities"][i], "identity")
        for i in range(len(objects))
    }
    inverses = {m: document_int(data["inverses"][m], "inverse") for m in mors}
    # the shape of the table; validate_groupoid checks the product it defines
    for (g, h), k in table.items():
        if g not in source or h not in source or k not in source:
            raise AxiomError("composition table mentions unknown morphism", (g, h))
        if source[g] != target[h]:
            raise AxiomError("composition defined for non-composable pair", (g, h))
    # products of ids by binary search in the sorted keys g * count + h
    keys = np.fromiter((g * count + h for g, h in table), np.int64, len(table))
    order = np.argsort(keys)
    keys = keys[order]
    values = np.fromiter(table.values(), np.intp, len(table))[order]
    G = FiniteGroupoid(
        objects, mors, source, target, lambda g, h: table[g, h], identities, inverses,
        lambda g, h: values[np.searchsorted(keys, g * count + h)],
    )
    for g, h in G.composable_pairs():
        if (g, h) not in table:
            raise AxiomError("composable pair missing from table", (g, h))
    validate_groupoid(G)
    return G
