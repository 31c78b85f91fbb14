"""Oracles for root generation and the cascade of strongly orthogonal roots.

The classical families are cross-checked against directly enumerated root
lists (independent of the string-based generator), and the cascade against
hand-computed sets; the classification table records which split Borel
subalgebras carry an open coadjoint orbit (cascade as large as the rank).
Every system of rank <= 8, and A-D up to rank 10, is also built by the
`Fraction` reference in `dense_reference.py`, which must give the same roots,
heights and cascade in the same order; every system of rank <= 12 must also
match the doubled-coordinate reference there, field by field.  Every
system of rank <= 8 has the standard Cartan matrix, written out here from the
Dynkin diagrams, and every entry 2(alpha_i, alpha_j) / (alpha_j, alpha_j) of
its simple roots is an integer.
"""
import collections
import dataclasses
import itertools
import time
from fractions import Fraction as Q

import pytest

from dense_reference import (
    doubled_build_root_system,
    doubled_check_strongly_orthogonal,
    doubled_kostant_cascade,
    ref_build_root_system,
    ref_kostant_cascade,
)
from liegrpd.rootsystems import (
    build_root_system,
    cascade_classification,
    kostant_cascade,
    open_orbit_rank_test,
    systems_up_to,
)


def e(i, n):
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def brute_positives(family, l):
    if family == "A":
        n = l + 1
        return {vsub(e(i, n), e(j, n)) for i in range(n) for j in range(n) if i < j}
    out = set()
    for i in range(l):
        for j in range(i + 1, l):
            out.add(vsub(e(i, l), e(j, l)))
            out.add(vadd(e(i, l), e(j, l)))
    if family == "B":
        out |= {e(i, l) for i in range(l)}
    if family == "C":
        out |= {tuple(2 * x for x in e(i, l)) for i in range(l)}
    return out


class TestGeneration:
    @pytest.mark.parametrize("family,rank", [
        ("A", 1), ("A", 2), ("A", 3), ("A", 5),
        ("B", 2), ("B", 3), ("B", 4),
        ("C", 2), ("C", 3), ("C", 4),
        ("D", 3), ("D", 4), ("D", 5),
    ])
    def test_classical_families_match_direct_enumeration(self, family, rank):
        rs = build_root_system(family, rank)
        assert set(rs.positive_roots) == brute_positives(family, rank)

    def test_counts(self):
        expected = {
            ("A", 4): 10, ("B", 5): 25, ("C", 6): 36, ("D", 7): 42,
            ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
            ("F", 4): 24, ("G", 2): 6,
        }
        for (fam, rank), count in expected.items():
            assert len(build_root_system(fam, rank).positive_roots) == count

    def test_g2_exact_roots(self):
        rs = build_root_system("G", 2)
        a1 = (Q(1), Q(-1), Q(0))
        a2 = (Q(-2), Q(1), Q(1))
        expected = {
            a1, a2, vadd(a1, a2),
            vadd(vadd(a1, a1), a2),
            vadd(vadd(vadd(a1, a1), a1), a2),
            vadd(vadd(vadd(vadd(a1, a1), a1), a2), a2),
        }
        assert set(rs.positive_roots) == expected

    def test_heights_start_at_one_and_step(self):
        rs = build_root_system("B", 3)
        by_height = {}
        for r, h in zip(rs.positive_roots, rs.heights):
            by_height.setdefault(h, set()).add(r)
        assert by_height[1] == set(rs.simple_roots)
        assert max(by_height) == 5  # highest root e1+e2 has height 5 in B3
        assert sorted(by_height) == list(range(1, 6))

    def test_invalid_ranks_rejected(self):
        for family, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 2),
                             ("E", 5), ("E", 9), ("F", 3), ("G", 1)]:
            with pytest.raises(ValueError):
                build_root_system(family, rank)
        with pytest.raises(ValueError):
            build_root_system("H", 3)

    def test_deterministic(self):
        a = build_root_system("E", 7)
        b = build_root_system("E", 7)
        assert a == b


class TestCascade:
    def test_a1(self):
        rs = build_root_system("A", 1)
        assert kostant_cascade(rs) == ((Q(1), Q(-1)),)

    def test_a2_single_member(self):
        rs = build_root_system("A", 2)
        assert kostant_cascade(rs) == (vsub(e(0, 3), e(2, 3)),)

    def test_a3(self):
        rs = build_root_system("A", 3)
        assert set(kostant_cascade(rs)) == {
            vsub(e(0, 4), e(3, 4)), vsub(e(1, 4), e(2, 4))
        }

    def test_b2(self):
        rs = build_root_system("B", 2)
        cas = kostant_cascade(rs)
        assert cas[0] == vadd(e(0, 2), e(1, 2))  # highest root first
        assert set(cas) == {vadd(e(0, 2), e(1, 2)), vsub(e(0, 2), e(1, 2))}

    def test_b3(self):
        rs = build_root_system("B", 3)
        cas = kostant_cascade(rs)
        assert set(cas) == {
            vadd(e(0, 3), e(1, 3)), vsub(e(0, 3), e(1, 3)), e(2, 3)
        }

    def test_c2(self):
        rs = build_root_system("C", 2)
        two = lambda i: tuple(2 * x for x in e(i, 2))
        assert set(kostant_cascade(rs)) == {two(0), two(1)}

    def test_d3_matches_a3_size(self):
        rs = build_root_system("D", 3)
        cas = kostant_cascade(rs)
        assert len(cas) == 2
        assert cas[0] == vadd(e(0, 3), e(1, 3))

    def test_d4_full_cartan(self):
        rs = build_root_system("D", 4)
        cas = kostant_cascade(rs)
        assert set(cas) == {
            vadd(e(0, 4), e(1, 4)), vsub(e(0, 4), e(1, 4)),
            vadd(e(2, 4), e(3, 4)), vsub(e(2, 4), e(3, 4)),
        }

    def test_g2(self):
        rs = build_root_system("G", 2)
        cas = kostant_cascade(rs)
        assert cas == ((Q(-1), Q(-1), Q(2)), (Q(1), Q(-1), Q(0)))

    def test_pairwise_strong_orthogonality_everywhere(self):
        for family, rank in [("A", 6), ("B", 5), ("C", 5), ("D", 6),
                             ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]:
            rs = build_root_system(family, rank)
            cas = kostant_cascade(rs)
            roots = set(rs.positive_roots)
            for i, a in enumerate(cas):
                for b in cas[i + 1:]:
                    assert sum(x * y for x, y in zip(a, b)) == 0
                    assert vadd(a, b) not in roots
                    assert vsub(a, b) not in roots
                    assert vsub(b, a) not in roots

    def test_cascade_sizes(self):
        sizes = {
            "A1": 1, "A2": 1, "A3": 2, "A4": 2, "A5": 3,
            "B2": 2, "B3": 3, "B4": 4,
            "C2": 2, "C3": 3, "C4": 4,
            "D3": 2, "D4": 4, "D5": 4, "D6": 6, "D7": 6, "D8": 8,
            "E6": 4, "E7": 7, "E8": 8, "F4": 4, "G2": 2,
        }
        for name, size in sizes.items():
            rs = build_root_system(name[0], int(name[1:]))
            assert len(kostant_cascade(rs)) == size, name


class TestClassification:
    def test_golden_table(self):
        got = cascade_classification(max_rank=8)
        open_names = {k for k, v in got.items() if v}
        assert open_names == {
            "A1",
            "B2", "B3", "B4", "B5", "B6", "B7", "B8",
            "C2", "C3", "C4", "C5", "C6", "C7", "C8",
            "D4", "D6", "D8",
            "E7", "E8", "F4", "G2",
        }

    def test_the_table_builds_no_fraction_roots(self):
        for family, rank in systems_up_to(8):
            rs = build_root_system(family, rank)
            open_orbit_rank_test(rs)
            assert "positive_roots" not in vars(rs), rs.name

    def test_report_fields(self):
        rep = open_orbit_rank_test(build_root_system("E", 7))
        assert rep.rank == 7 and rep.cascade_size == 7 and rep.has_open_orbit
        assert rep.positive_count == 63
        rep = open_orbit_rank_test(build_root_system("E", 6))
        assert rep.cascade_size == 4 and not rep.has_open_orbit


class TestChecksCanFail:
    @pytest.mark.parametrize("family,rank,index,bad", [
        ("B", 4, 3, (0, 0, -2, 2)),  # doubled alpha_4 = 2 e_4, third entry wrong
        ("G", 2, 0, (2, -4, 0)),  # doubled alpha_1 = (2, -2, 0), second entry wrong
    ], ids=["B4", "G2"])
    def test_a_wrong_simple_root_fails_the_count(self, monkeypatch, family, rank, index, bad):
        from liegrpd import rootsystems

        simples = rootsystems._simple_roots(family, rank)
        assert sum(x != y for x, y in zip(simples[index], bad)) == 1
        simples[index] = bad
        monkeypatch.setattr(rootsystems, "_simple_roots", lambda family, rank: simples)
        start = time.perf_counter()
        with pytest.raises(AssertionError, match=f"{family}{rank}: generated"):
            build_root_system(family, rank)
        assert time.perf_counter() - start < 1.0

    def test_validation_refuses_a_non_strongly_orthogonal_pair(self):
        from liegrpd.rootsystems import _check_strongly_orthogonal

        rs = build_root_system("B", 2)
        assert dict(zip(rs.keys, rs.doubled_roots)) == {  # e1 - e2, e2, e1, e1 + e2
            1: (2, -2), 16: (0, 2), 17: (2, 0), 33: (2, 2)}
        keys = set(rs.keys)
        _check_strongly_orthogonal([(33, (2, 2)), (1, (2, -2))], keys)  # the B2 cascade
        with pytest.raises(AssertionError, match="not strongly orthogonal"):
            _check_strongly_orthogonal([(17, (2, 0)), (16, (0, 2))], keys)  # e1 + e2 is a root
        with pytest.raises(AssertionError, match="not orthogonal"):
            _check_strongly_orthogonal([(17, (2, 0)), (33, (2, 2))], keys)

    def test_a_wrong_dynkin_diagram_fails_the_validation(self):
        rs = build_root_system("B", 2)
        cut = dataclasses.replace(rs, cartan=((2, 0), (0, 2)))  # A1 + A1: alpha_1, alpha_2
        with pytest.raises(AssertionError, match="not orthogonal"):
            kostant_cascade(cut)


def refusal(check, *args):
    """The message of the AssertionError that `check(*args)` raises, else None."""
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def test_the_key_check_refuses_what_the_doubled_check_refuses():
    """On every pair of distinct positive roots of every system of rank <= 8,
    `_check_strongly_orthogonal` refuses exactly the pairs that the check on
    doubled coordinates refuses, with the same message.  The pairs include
    differences with coefficients of both signs, whose key difference
    borrows, in G2, F4 and E8, and orthogonal ones among them in F4 and E8."""
    from liegrpd.rootsystems import _check_strongly_orthogonal

    verdicts, mixed, orthogonal_mixed = collections.Counter(), set(), set()
    for family, rank in systems_up_to(8):
        rs = build_root_system(family, rank)
        roots = set(rs.doubled_roots)
        coeffs = [[k >> 4 * i & 15 for i in range(rank)] for k in rs.keys]
        members = zip(coeffs, rs.keys, rs.doubled_roots)
        for (ca, ka, a), (cb, kb, b) in itertools.combinations(members, 2):
            expected = refusal(doubled_check_strongly_orthogonal, [a, b], roots)
            got = refusal(_check_strongly_orthogonal, [(ka, a), (kb, b)], set(rs.keys))
            assert got == expected, (a, b)
            verdicts[expected] += 1
            diff = [x - y for x, y in zip(ca, cb)]
            if min(diff) < 0 < max(diff):
                mixed.add(rs.name)
                if expected != "cascade members are not orthogonal":
                    orthogonal_mixed.add(rs.name)
    assert {"G2", "F4", "E8"} <= mixed and {"F4", "E8"} <= orthogonal_mixed
    assert set(verdicts) == {None, "cascade members are not orthogonal",
                             "cascade members are not strongly orthogonal"}


def standard_cartan(family, l):
    """The Cartan matrix a_ij = <alpha_i, alpha_j^vee> = 2(alpha_i, alpha_j) /
    (alpha_j, alpha_j) in Bourbaki's numbering (Humphreys, section 11.4),
    from the Dynkin diagram's bonds (i, j, a_ij, a_ji)."""
    chain = [(i, i + 1, -1, -1) for i in range(l - 1)]
    bonds = {
        "A": chain,
        "B": chain[:-1] + [(l - 2, l - 1, -2, -1)],  # alpha_l short
        "C": chain[:-1] + [(l - 2, l - 1, -1, -2)],  # alpha_l long
        "D": chain[:-1] + [(l - 3, l - 1, -1, -1)],  # the fork at alpha_(l-2)
        "E": [(0, 2, -1, -1), (1, 3, -1, -1)] + chain[2:],  # alpha_2 on alpha_4
        "F": [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)],
        "G": [(0, 1, -1, -3)],  # alpha_1 short
    }[family]
    a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i, j, a_ij, a_ji in bonds:
        a[i][j], a[j][i] = a_ij, a_ji
    return tuple(map(tuple, a))


def cartan_ratios(simple_roots):
    """The ratios 2(alpha_i, alpha_j) / (alpha_j, alpha_j) as Fractions."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    return tuple(tuple(Q(2 * dot(a, b)) / dot(b, b) for b in simple_roots)
                 for a in simple_roots)


def cartan_problems(family, rank):
    """How `build_root_system(family, rank)` departs from the standard Cartan
    matrix: a ratio 2(alpha_i, alpha_j) / (alpha_j, alpha_j) of its simple
    roots that is not an integer, a `cartan` entry that is not its ratio (a
    floored one), or ratios that are not `standard_cartan(family, rank)`."""
    rs = build_root_system(family, rank)
    ratios = cartan_ratios(rs.simple_roots)
    problems = []
    if any(x.denominator != 1 for row in ratios for x in row):
        problems.append("not integral")
    if rs.cartan != ratios:
        problems.append("floored")
    if ratios != standard_cartan(family, rank):
        problems.append("not standard")
    return problems


CARTAN_SYSTEMS = [(family, rank) for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                  for rank in range(lo, 9)]
CARTAN_SYSTEMS += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


class TestCartanMatrix:
    @pytest.mark.parametrize("family,rank", CARTAN_SYSTEMS,
                             ids=[f"{f}{r}" for f, r in CARTAN_SYSTEMS])
    def test_is_the_standard_integral_matrix(self, family, rank):
        assert cartan_problems(family, rank) == []

    def test_b4_with_a_doubled_short_root_is_refused(self, monkeypatch):
        from liegrpd import rootsystems

        simples = rootsystems._simple_roots("B", 4)
        simples[3] = (0, 0, 0, 4)  # doubled alpha_4 = 2 e_4 in place of e_4
        monkeypatch.setattr(rootsystems, "_simple_roots", lambda family, rank: simples)
        assert cartan_ratios(simples) == standard_cartan("C", 4)  # and C4 has B4's root count
        with pytest.raises(AssertionError, match="B4: the ratios .* are not the Cartan matrix of B4"):
            build_root_system("B", 4)

    @pytest.mark.parametrize("index,bad", [
        (0, (2, -2, 1)), (1, (-4, 1, 2)), (1, (-4, 2, 3)), (1, (-4, 2, 4)),
    ])
    def test_g2_with_one_wrong_entry_is_refused(self, monkeypatch, index, bad):
        from liegrpd import rootsystems

        simples = rootsystems._simple_roots("G", 2)
        assert sum(x != y for x, y in zip(simples[index], bad)) == 1
        simples[index] = bad
        monkeypatch.setattr(rootsystems, "_simple_roots", lambda family, rank: simples)
        assert any(x.denominator != 1 for row in cartan_ratios(simples) for x in row)
        # the count, checked first, passes: the floored matrix gives 6 "roots"
        with pytest.raises(AssertionError, match="G2: the ratios .* are not the Cartan matrix of G2"):
            build_root_system("G", 2)


REFERENCE_SYSTEMS = [(family, rank) for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                     for rank in range(lo, 11)]
REFERENCE_SYSTEMS += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family,rank", REFERENCE_SYSTEMS,
                         ids=[f"{f}{r}" for f, r in REFERENCE_SYSTEMS])
def test_matches_the_fraction_reference(family, rank):
    rs = build_root_system(family, rank)
    ref = ref_build_root_system(family, rank)
    assert (rs.name, rs.family, rs.rank, rs.ambient_dim) == (
        ref.name, ref.family, ref.rank, ref.ambient_dim)
    assert rs.simple_roots == ref.simple_roots
    assert rs.positive_roots == ref.positive_roots
    assert rs.heights == ref.heights
    cascade = kostant_cascade(rs)
    assert cascade == ref_kostant_cascade(ref)
    # the reports format Fraction coordinates; an int would change their bytes
    for root in rs.simple_roots + rs.positive_roots + cascade:
        assert all(type(x) is Q for x in root), root


def test_matches_the_doubled_reference_through_rank_12():
    """Every system of rank <= 12 gives the fields and the cascade order of
    the doubled-coordinate path it replaced."""
    start = time.perf_counter()
    for family, rank in systems_up_to(12):
        rs = build_root_system(family, rank)
        ref = doubled_build_root_system(family, rank)
        name = f"{family}{rank}"
        assert (rs.name, rs.ambient_dim) == (ref.name, ref.ambient_dim), name
        assert rs.simple_roots == ref.simple_roots, name
        assert rs.positive_roots == ref.positive_roots, name
        assert rs.heights == ref.heights, name
        assert rs.doubled_roots == ref.doubled_roots, name
        assert kostant_cascade(rs) == doubled_kostant_cascade(ref), name
    assert time.perf_counter() - start < 1.0
