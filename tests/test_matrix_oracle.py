"""`Matrix` and `make_module` agree with the dense `Fraction` oracle.

`DenseMatrix`, `ref_action_of` and `ref_law_failure` in `dense_reference.py`
are the matrix and representation-law check the library used before `Matrix`
stored scaled integer rows.  On random Q and Q(i) matrices with zero rows,
both signs and denominators up to 12, `Matrix` must give the same entries,
equality and hashing; `make_module` must accept and reject exactly the
actions the oracle does, naming the same basis pair.
"""
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import DenseMatrix, ref_law_failure
from liegrpd.catalog import LIE_CATALOG, axb, axb_tautological_module
from liegrpd.exact import GaussInt, Matrix, NumericError, gaussian, zi_content
from liegrpd.lie import RepresentationError, adjoint_module, coadjoint_module, make_module

rationals = st.builds(Q, st.integers(-30, 30), st.integers(1, 12))


def entries(gaussian_entries):
    if not gaussian_entries:
        return st.one_of(st.integers(-6, 6), rationals)
    return st.one_of(rationals, st.builds(gaussian, rationals, rationals))


@st.composite
def exact_rows(draw):
    """Rows of int, Fraction or (sometimes) GaussianRational entries, with
    some rows zero."""
    gaussian_entries = draw(st.booleans())
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    zero = draw(st.sets(st.integers(0, r - 1)))
    rows = []
    for i in range(r):
        row = draw(st.lists(entries(gaussian_entries), min_size=c, max_size=c))
        rows.append([0] * c if i in zero else row)
    return rows


@st.composite
def row_pairs(draw):
    """Two matrices: the second a copy of the first with every entry written
    in another exact form, and one entry possibly replaced."""
    a = draw(exact_rows())
    b = [[gaussian(x) if isinstance(x, int) else x for x in row] for row in a]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a[0]) - 1))
        b[i][j] = draw(st.one_of(entries(True), st.just(0)))
    return a, b


@settings(max_examples=300, deadline=None)
@given(exact_rows())
def test_entries_match_the_oracle(rows):
    m, d = Matrix(rows), DenseMatrix(rows)
    assert (m.rows, m.cols) == (d.rows, d.cols)
    assert m.data == d.data
    assert [type(x) for row in m.data for x in row] == [type(x) for row in d.data for x in row]
    assert (-m).data == (-d).data and m.transpose().data == d.transpose().data
    assert all(m.column(j) == d.column(j) for j in range(m.cols))
    assert repr(m) == repr(d)
    assert np.array_equal(m.to_numpy(), d.to_numpy())
    assert m.to_numpy().dtype == d.to_numpy().dtype


@settings(max_examples=300, deadline=None)
@given(row_pairs())
def test_equality_and_hash_match_the_oracle(pair):
    a, b = pair
    equal = DenseMatrix(a) == DenseMatrix(b)
    assert (Matrix(a) == Matrix(b)) is equal
    assert (Matrix(a) != Matrix(b)) is not equal
    if equal:
        assert hash(Matrix(a)) == hash(Matrix(b))
    assert Matrix(a) == Matrix(a) and hash(Matrix(a)) == hash(Matrix(a))


@settings(max_examples=200, deadline=None)
@given(exact_rows(), st.integers(1, 60))
def test_storage_is_in_lowest_terms(rows, k):
    m = Matrix(rows)
    assert m.denominator > 0
    assert zi_content([m.denominator, *(x for row in m.ints for x in row)]) == 1
    assert all(type(x) in (int, GaussInt) for row in m.ints for x in row)
    # the same matrix given as k N / (k s) is reduced to the same fields
    assert Matrix.scaled([[k * x for x in row] for row in m.ints], k * m.denominator) == m
    assert Matrix.scaled(m.ints, m.denominator).ints == m.ints


class TestToNumpyOnHugeEntries:
    """Each entry is converted by one exact division, as `float(Fraction)` does."""

    def test_huge_numerator_and_denominator_round_to_one(self):
        m = Matrix([[Q(10**400 + 1, 10**400), 0]])
        assert m.to_numpy().tolist() == [[1.0, 0.0]]

    def test_tiny_entry_underflows_to_zero(self):
        assert Matrix([[Q(1, 3 * 10**400), 0]]).to_numpy().tolist() == [[0.0, 0.0]]

    def test_huge_entry_is_named(self):
        with pytest.raises(NumericError, match=r"^matrix entry \(0, 1\) does not fit a float$"):
            Matrix([[1, 10**400]]).to_numpy()

    def test_huge_common_denominator(self):
        # the scale is 10^400 for both entries; neither overflows a float
        m = Matrix([[Q(1, 10**400), Q(3, 2)], [gaussian(Q(1, 2), Q(-1, 10**400)), 0]])
        assert m.to_numpy().tolist() == [[0.0, 1.5], [0.5, 0.0]]
        assert np.array_equal(m.to_numpy(), DenseMatrix(m.data).to_numpy())


def _modules():
    """(name, algebra, action rows) for the representation-law comparison."""
    out = []
    for name, make in sorted(LIE_CATALOG.items()):
        L = make()
        out.append((f"{name}/adjoint", L, [a.data for a in adjoint_module(L).actions]))
        out.append((f"{name}/coadjoint", L, [a.data for a in coadjoint_module(L).actions]))
    M = axb_tautological_module()
    out.append(("axb/tautological", M.algebra, [a.data for a in M.actions]))
    # a(Y1) = c, a(Y2) = 0 is a module for every c: changing a(Y1) keeps the law
    out.append(("axb/character", axb(), [((Q(3, 4),),), ((Q(0),),)]))
    return out


MODULES = _modules()


def _outcome(L, actions):
    """None when make_module accepts the actions, else its error message."""
    try:
        make_module(L, [Matrix(a) for a in actions])
    except RepresentationError as exc:
        return str(exc)
    return None


def _oracle(L, actions):
    pair = ref_law_failure(L, [DenseMatrix(a) for a in actions])
    if pair is None:
        return None
    return f"representation law fails on basis pair ({pair[0] + 1},{pair[1] + 1})"


@pytest.mark.parametrize("name,L,actions", MODULES, ids=[m[0] for m in MODULES])
def test_make_module_agrees_with_the_oracle_on_every_one_entry_change(name, L, actions):
    assert _outcome(L, actions) is None and _oracle(L, actions) is None
    rng = random.Random(name)
    accepted = rejected = 0
    n = len(actions[0])
    for k in range(len(actions)):
        for i in range(n):
            for j in range(n):
                delta = Q(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 12))
                if L.field == "Qi" and rng.random() < 0.5:
                    delta = gaussian(delta, rng.randint(-3, 3))
                changed = [[list(row) for row in a] for a in actions]
                changed[k][i][j] += delta
                got = _outcome(L, changed)
                assert got == _oracle(L, changed)
                accepted += got is None
                rejected += got is not None
    if name == "axb/character":
        assert accepted == 1 and rejected == 1
    else:
        assert rejected > 0
