"""The algebra builders and readers agree with their dense-tensor references.

`realify`, `semidirect_sum`, `LieAlgebra.bracket`, `centralizer_mod` and
`algebra_to_json` are checked against the dense triple loops kept in
`dense_reference.py`, on the catalog, seeded conjugates over Q and Q(i) and
the valid draws of the random-tensor generator.  `bracket`, `ad_matrix`,
`adjoint_module`, `bform`, `orbit_dimension` and `isotropy_algebra`, which
read the integer table D C, are checked against their `Fraction` versions
kept there, on the catalog, its seeded conjugates and a Q(i) algebra whose
constants need D = 210.
"""
import functools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    COMPLEX_BOREL,
    COMPLEX_HEISENBERG,
    DENSE_CATALOG,
    VALID_GAUSSIAN_DRAWS,
    VALID_RATIONAL_DRAWS,
    basis_vector,
    dense,
    rank_kernel,
    random_tensor,
    ref_ad_matrix,
    ref_adjoint_actions,
    ref_adjoint_module,
    ref_bform,
    ref_bracket,
    ref_brackets,
    ref_centralizer_mod,
    ref_coadjoint_actions,
    ref_conjugate,
    ref_direct_sum,
    ref_doc,
    ref_lie_bracket,
    ref_realify,
    ref_semidirect_sum,
    upper,
)
from liegrpd.catalog import LIE_CATALOG, complex_borel, complex_heisenberg
from liegrpd.coadjoint import bform, isotropy_algebra, orbit_dimension
from liegrpd.exact import GaussInt, GaussianRational, gaussian, zi, zi_parts
from liegrpd.lie import (
    Subspace,
    ad_matrix,
    adjoint_module,
    algebra_to_json,
    centralizer_mod,
    coadjoint_module,
    from_brackets,
    realify,
    semidirect_sum,
    structure_series,
)

I = gaussian(0, 1)


def _default_names(n):
    return tuple(f"Y{i+1}" for i in range(n))


def _case(t, field, basis=None):
    """(algebra built from the tensor's upper triangle, tensor, basis, field)."""
    basis = basis or _default_names(len(t))
    return from_brackets(len(t), upper(t), basis, field), t, basis, field


@functools.cache
def _gaussian_cases():
    cases = {
        "complex_borel": (complex_borel(), COMPLEX_BOREL, ("H", "E"), "Qi"),
        "complex_heisenberg": (complex_heisenberg(), COMPLEX_HEISENBERG, _default_names(3), "Qi"),
    }
    units = (1, -1, I, -I)
    for seed in range(3):
        for name, t in (("borel", COMPLEX_BOREL), ("heisenberg", COMPLEX_HEISENBERG),
                        ("borel+heisenberg", ref_direct_sum(COMPLEX_BOREL, COMPLEX_HEISENBERG))):
            cases[f"{name}~{seed}"] = _case(ref_conjugate(t, seed, units), "Qi")
    for seed in VALID_GAUSSIAN_DRAWS:
        t, field = random_tensor(seed)
        cases[f"draw{seed}"] = _case(t, field)
    return cases


@functools.cache
def _all_cases():
    cases = {name: (LIE_CATALOG[name](),) + DENSE_CATALOG[name] for name in LIE_CATALOG}
    for name in ("axb", "axb_semidirect_plane", "filiform4"):
        t = DENSE_CATALOG[name][0]
        cases[f"{name}~1"] = _case(ref_conjugate(t, 1), "Q")
    for seed in VALID_RATIONAL_DRAWS:
        t, field = random_tensor(seed)
        cases[f"draw{seed}"] = _case(t, field)
    cases.update(_gaussian_cases())
    return cases


GAUSSIAN_CASES = sorted(_gaussian_cases())
ALL_CASES = sorted(_all_cases())


def test_reference_draws_are_what_they_claim():
    for seed in VALID_GAUSSIAN_DRAWS + VALID_RATIONAL_DRAWS:
        _, t, _, field = _case(*random_tensor(seed))
        assert (field == "Qi") is (seed in VALID_GAUSSIAN_DRAWS)
        consts = [c for _, _, terms in ref_brackets(t) for _, c in terms]
        assert consts and (field == "Q" or any(not isinstance(c, Q) for c in consts))


@pytest.mark.parametrize("name", ALL_CASES)
def test_document_lists_the_reference_brackets(name):
    L, t, basis, field = _all_cases()[name]
    assert algebra_to_json(L) == ref_doc(t, basis, field)


@pytest.mark.parametrize("name", GAUSSIAN_CASES)
def test_realify_equals_dense_reference(name):
    L, t, basis, _ = _gaussian_cases()[name]
    names = tuple(basis) + tuple("i" + b for b in basis)
    assert algebra_to_json(realify(L)) == ref_doc(ref_realify(t), names, "Q")


@pytest.mark.parametrize("name", sorted(LIE_CATALOG))
@pytest.mark.parametrize("module", ["adjoint", "coadjoint"])
def test_semidirect_sum_equals_dense_reference(name, module):
    L, t, basis, field = _all_cases()[name]
    make, actions = {"adjoint": (adjoint_module, ref_adjoint_actions),
                     "coadjoint": (coadjoint_module, ref_coadjoint_actions)}[module]
    names = tuple(basis) + tuple(f"V{s+1}" for s in range(len(t)))
    expected = ref_doc(ref_semidirect_sum(t, actions(t)), names, field)
    assert algebra_to_json(semidirect_sum(L, make(L))) == expected


def _vector(rng, n, gaussian_entries):
    def entry():
        if rng.random() < 0.3:
            return Q(0)
        re = Q(rng.randint(-4, 4), rng.randint(1, 3))
        return gaussian(re, rng.randint(-2, 2)) if gaussian_entries else re

    return tuple(entry() for _ in range(n))


@pytest.mark.parametrize("name", ALL_CASES)
def test_bracket_equals_dense_reference(name):
    L, t, _, _ = _all_cases()[name]
    rng = random.Random(name)
    for trial in range(20):
        x, y = (_vector(rng, L.dim, trial % 2 == 1) for _ in range(2))
        assert L.bracket(x, y) == ref_bracket(t, x, y)
    for i in range(L.dim):
        for j in range(L.dim):
            x, y = basis_vector(L, i), basis_vector(L, j)
            assert L.bracket(x, y) == ref_bracket(t, x, y)


@pytest.mark.parametrize("name", ALL_CASES)
def test_centralizer_mod_equals_dense_reference(name):
    L, t, _, _ = _all_cases()[name]
    rng = random.Random(name)
    series = structure_series(L)
    subspaces = {Subspace.zero(L.dim), Subspace.full(L.dim), series.center}
    subspaces.update(series.derived_series + series.lower_central_series)
    for size in range(1, L.dim):
        vectors = [_vector(rng, L.dim, L.field == "Qi") for _ in range(size)]
        subspaces.add(Subspace.from_vectors(L.dim, vectors))
    for s in sorted(subspaces, key=lambda s: (s.dim, repr(s.rows))):
        assert centralizer_mod(L, s) == ref_centralizer_mod(t, s)


# the Q(i) algebra whose integer table needs D = lcm(2, 3, 7, 5) = 210
QI_D210 = dense(4, {(0, 1): {2: gaussian(Q(1, 2), Q(1, 3)), 3: Q(-3, 7)},
                    (0, 2): {3: gaussian(0, Q(-2, 5))}})


@functools.cache
def _integer_table_cases():
    """name -> (algebra, dense tensor): the catalog, its seeded unimodular
    conjugates and the D = 210 algebra with its Gaussian conjugates."""
    cases = {name: (LIE_CATALOG[name](), DENSE_CATALOG[name][0]) for name in LIE_CATALOG}
    units = (1, -1, I, -I)
    for name in LIE_CATALOG:
        t, _, field = DENSE_CATALOG[name]
        for seed in range(2):
            tc = ref_conjugate(t, seed, units if field == "Qi" else (1, -1))
            cases[f"{name}~{seed}"] = _case(tc, field)[:2]
    cases["qi_d210"] = _case(QI_D210, "Qi")[:2]
    for seed in range(2):
        cases[f"qi_d210~{seed}"] = _case(ref_conjugate(QI_D210, seed, units), "Qi")[:2]
    return cases


ENTRIES = {
    "int": st.integers(-5, 5),
    "Fraction": st.builds(Q, st.integers(-5, 5), st.integers(1, 6)),
    "GaussianRational": st.builds(gaussian, st.builds(Q, st.integers(-5, 5), st.integers(1, 6)),
                                  st.builds(Q, st.integers(-5, 5), st.integers(1, 6))),
    "GaussInt": st.builds(zi, st.integers(-5, 5), st.integers(-5, 5)),
}


def _exact(v):
    """v with each GaussInt entry as the equal `GaussianRational`, which the
    `Fraction` references take."""
    return tuple(gaussian(*zi_parts(x)) if type(x) is GaussInt else x for x in v)


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_integer_table_readers_equal_fraction_references(kind, data):
    name = data.draw(st.sampled_from(sorted(_integer_table_cases())))
    L, t = _integer_table_cases()[name]
    vector = st.lists(ENTRIES[kind], min_size=L.dim, max_size=L.dim).map(tuple)
    vector |= vector.map(lambda v: tuple(a * 0 for a in v))
    x, y = data.draw(vector), data.draw(vector)
    ex, ey = _exact(x), _exact(y)
    assert L.bracket(x, y) == ref_lie_bracket(L, ex, ey) == ref_bracket(t, ex, ey)
    assert all(type(c) in (Q, GaussianRational) for c in L.bracket(x, y))
    assert ad_matrix(L, x) == ref_ad_matrix(L, ex)
    assert adjoint_module(L) == ref_adjoint_module(L)
    assert bform(L, x) == ref_bform(L, ex)
    rank, kernel = rank_kernel(ref_bform(L, ex))
    assert orbit_dimension(L, x) == rank
    assert isotropy_algebra(L, x) == Subspace.from_vectors(L.dim, kernel)
