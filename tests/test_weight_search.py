"""`module_weights` agrees with the depth-first reference weight search.

Each case computes the weights twice: with the weight search in `weights.py`
and with `ref_weights_exact` from `dense_reference.py` patched in its place.
Both must give the same functionals (`re`, `im`), the same exactness flag, the
same multiplicities and the same order, on the catalog, Gaussian-rational and
irrational-spectrum algebras, the tautological module of the affine line, a
module on which the depth-first search backtracked, coadjoint and dual
modules, seeded conjugates, direct sums up to dimension 8 and the valid draws
of the random-tensor generator.
"""
import functools
import itertools
from unittest import mock

import pytest

from dense_reference import (
    COMPLEX_BOREL,
    COMPLEX_HEISENBERG,
    DENSE_CATALOG,
    VALID_GAUSSIAN_DRAWS,
    VALID_RATIONAL_DRAWS,
    random_tensor,
    ref_conjugate,
    ref_direct_sum,
    ref_weights_exact,
    upper,
)
from liegrpd import weights
from liegrpd.catalog import (
    LIE_CATALOG,
    abelian,
    axb_tautological_module,
    complex_heisenberg,
    irrational_spectrum_algebra,
    realified_heisenberg,
)
from liegrpd.exact import Matrix, gaussian
from liegrpd.lie import adjoint_module, coadjoint_module, dual_module, from_brackets, make_module
from liegrpd.weights import SolvabilityError, module_weights

I = gaussian(0, 1)
Q_CATALOG = sorted(n for n, (_, _, field) in DENSE_CATALOG.items() if field == "Q")


def _algebra(t, field):
    return from_brackets(len(t), upper(t), field=field)


@functools.cache
def _algebras():
    """name -> algebra."""
    cases = {name: make() for name, make in LIE_CATALOG.items()}
    cases["complex_heisenberg"] = complex_heisenberg()
    cases["realified_heisenberg"] = realified_heisenberg()
    cases["irrational_spectrum"] = irrational_spectrum_algebra()
    for seed in range(3):
        for name in Q_CATALOG:
            cases[f"{name}~{seed}"] = _algebra(ref_conjugate(DENSE_CATALOG[name][0], seed), "Q")
        for name, t in (("complex_borel", COMPLEX_BOREL), ("complex_heisenberg", COMPLEX_HEISENBERG)):
            cases[f"{name}~{seed}"] = _algebra(ref_conjugate(t, seed, (1, -1, I, -I)), "Qi")
    for a, b in itertools.combinations_with_replacement(Q_CATALOG, 2):
        ta, tb = DENSE_CATALOG[a][0], DENSE_CATALOG[b][0]
        if len(ta) + len(tb) <= 8:
            cases[f"{a}+{b}"] = _algebra(ref_direct_sum(ta, tb), "Q")
    axb = DENSE_CATALOG["axb"][0]
    cases["axb^3"] = _algebra(ref_direct_sum(axb, axb, axb), "Q")
    cases["axb^4"] = _algebra(ref_direct_sum(axb, axb, axb, axb), "Q")
    cases["(axb+e2)~1"] = _algebra(ref_conjugate(ref_direct_sum(axb, DENSE_CATALOG["e2"][0]), 1), "Q")
    cases["complex_borel+complex_heisenberg~0"] = _algebra(
        ref_conjugate(ref_direct_sum(COMPLEX_BOREL, COMPLEX_HEISENBERG), 0, (1, -1, I, -I)), "Qi")
    for seed in VALID_RATIONAL_DRAWS + VALID_GAUSSIAN_DRAWS:
        cases[f"draw{seed}"] = _algebra(*random_tensor(seed))
    return cases


MODULES = {
    "adjoint": adjoint_module,
    "coadjoint": coadjoint_module,
    "dual_adjoint": lambda L: dual_module(adjoint_module(L)),
}


def _summary(L, M):
    """The weights as (re, im, exact, multiplicity) in output order, or the
    error class when the algebra is not solvable."""
    try:
        return [(w.re, w.im, w.exact, w.multiplicity) for w in module_weights(L, M)]
    except SolvabilityError:
        return SolvabilityError


def _reference_summary(L, M):
    with mock.patch.object(weights, "_weights_exact", lambda M, *_: ref_weights_exact(list(M.actions))):
        return _summary(L, M)


@pytest.mark.parametrize("module", sorted(MODULES))
@pytest.mark.parametrize("name", sorted(_algebras()))
def test_weights_equal_reference_search(name, module):
    L = _algebras()[name]
    M = MODULES[module](L)
    assert _summary(L, M) == _reference_summary(L, M)


def _plane_on_space():
    """The abelian plane acting on Q^3 by diag(0, 0, 1) and a commuting
    matrix with eigenvalues +-sqrt(2) on the first two coordinates: the least
    root of the first action leads to an irrational eigenvalue of the second,
    where the depth-first search backtracked to the root 1 first."""
    a = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    b = Matrix([[0, 2, 0], [1, 0, 0], [0, 0, 1]])
    return make_module(abelian(2), [a, b])


@pytest.mark.parametrize("make", [axb_tautological_module,
                                  lambda: dual_module(axb_tautological_module()),
                                  _plane_on_space])
def test_module_weights_equal_reference_search(make):
    M = make()
    assert _summary(M.algebra, M) == _reference_summary(M.algebra, M)


@pytest.mark.parametrize("name", sorted(_algebras()))
def test_adjoint_actions_pass_the_representation_law(name):
    L = _algebras()[name]
    assert make_module(L, adjoint_module(L).actions) == adjoint_module(L)


def test_cases_cover_both_fields_and_the_float_path():
    algebras = _algebras()
    assert {L.field for L in algebras.values()} == {"Q", "Qi"}
    assert max(L.dim for L in algebras.values()) == 8
    L = algebras["irrational_spectrum"]
    assert all(not w.exact for w in module_weights(L, adjoint_module(L)))
