import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from dense_reference import DenseMatrix
from liegrpd.catalog import (
    abelian,
    axb,
    axb_semidirect_plane,
    axb_tautological_module,
    complex_heisenberg,
    euclid2,
    filiform4,
    heisenberg,
    irrational_spectrum_algebra,
    realified_borel,
)
from liegrpd.exact import Matrix
from liegrpd.lie import (
    adjoint_module,
    algebra_from_json,
    dual_module,
    make_module,
    realify,
    semidirect_sum,
)
from liegrpd.weights import (
    SolvabilityError,
    algebra_is_exponential,
    algebra_roots,
    exponential_type_test,
    module_weights,
)


def weight_multiset(weights):
    return sorted((w.re, w.im, w.multiplicity) for w in weights)


class TestModuleWeights:
    def test_heisenberg_all_zero(self):
        ws = algebra_roots(heisenberg())
        assert len(ws) == 1
        w = ws[0]
        assert w.is_zero() and w.multiplicity == 3 and w.exact

    def test_filiform_all_zero(self):
        ws = algebra_roots(filiform4())
        assert len(ws) == 1 and ws[0].multiplicity == 4 and ws[0].is_zero()

    def test_axb_roots(self):
        ws = algebra_roots(axb())
        assert weight_multiset(ws) == [
            ((Q(0), Q(0)), (Q(0), Q(0)), 1),
            ((Q(1), Q(0)), (Q(0), Q(0)), 1),
        ]

    def test_e2_roots_purely_imaginary(self):
        ws = algebra_roots(euclid2())
        assert weight_multiset(ws) == [
            ((Q(0),) * 3, (Q(-1), Q(0), Q(0)), 1),
            ((Q(0),) * 3, (Q(0), Q(0), Q(0)), 1),
            ((Q(0),) * 3, (Q(1), Q(0), Q(0)), 1),
        ]

    def test_realified_borel_roots(self):
        ws = algebra_roots(realified_borel())
        assert weight_multiset(ws) == [
            ((Q(0),) * 4, (Q(0),) * 4, 2),
            ((Q(2), Q(0), Q(0), Q(0)), (Q(0), Q(0), Q(-2), Q(0)), 1),
            ((Q(2), Q(0), Q(0), Q(0)), (Q(0), Q(0), Q(2), Q(0)), 1),
        ]

    def test_multiplicities_sum_to_dimension(self):
        for L in (heisenberg(), axb(), euclid2(), filiform4(), realified_borel()):
            ws = algebra_roots(L)
            assert sum(w.multiplicity for w in ws) == L.dim

    def test_weight_sum_equals_trace(self):
        for L in (axb(), euclid2(), realified_borel(), axb_semidirect_plane()):
            M = adjoint_module(L)
            ws = module_weights(L, M)
            for i in range(L.dim):
                re = sum(w.multiplicity * w.re[i] for w in ws)
                im = sum(w.multiplicity * w.im[i] for w in ws)
                assert re == DenseMatrix(M.actions[i].data).trace() and im == 0

    def test_tautological_module_weights(self):
        L = axb()
        ws = module_weights(L, axb_tautological_module())
        assert weight_multiset(ws) == [
            ((Q(-1, 2), Q(0)), (Q(0), Q(0)), 1),
            ((Q(1, 2), Q(0)), (Q(0), Q(0)), 1),
        ]

    def test_rejects_non_solvable(self):
        sl2ish = None
        from liegrpd.lie import from_brackets

        sl2ish = from_brackets(3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}})
        with pytest.raises(SolvabilityError):
            algebra_roots(sl2ish)

    def test_float_fallback_tagged(self):
        ws = algebra_roots(irrational_spectrum_algebra())
        assert any(not w.exact for w in ws)
        # spectrum of ad(Y1) on the plane is 1 +- sqrt(2)
        nonzero = sorted(w.re[0] for w in ws if not w.is_zero())
        assert nonzero == pytest.approx([1 - 2**0.5, 1 + 2**0.5], abs=1e-7)


class TestDualAndSemidirect:
    def test_dual_weights_are_negated(self):
        cases = [
            (axb(), axb_tautological_module()),
            (heisenberg(), adjoint_module(heisenberg())),
            (euclid2(), adjoint_module(euclid2())),
            (realified_borel(), adjoint_module(realified_borel())),
        ]
        for L, M in cases:
            ws = module_weights(L, M)
            dual_ws = module_weights(L, dual_module(M))
            negated = sorted(
                (tuple(-a for a in w.re), tuple(-a for a in w.im), w.multiplicity)
                for w in ws
            )
            assert weight_multiset(dual_ws) == negated

    def test_semidirect_roots_are_union(self):
        L = axb()
        M = axb_tautological_module()
        S = semidirect_sum(L, M)
        roots_s = weight_multiset(algebra_roots(S))
        lifted = []
        pad = (Q(0),) * M.dim
        for w in algebra_roots(L):
            lifted.append((w.re + pad, w.im + pad, w.multiplicity))
        for w in module_weights(L, M):
            lifted.append((w.re + pad, w.im + pad, w.multiplicity))
        # merge equal lifted weights
        merged = {}
        for re, im, mult in lifted:
            merged[(re, im)] = merged.get((re, im), 0) + mult
        expect = sorted((re, im, m) for (re, im), m in merged.items())
        assert roots_s == expect

    def test_semidirect_roots_heisenberg_module(self):
        L = heisenberg()
        M = adjoint_module(L)
        S = semidirect_sum(L, M)
        ws = algebra_roots(S)
        assert len(ws) == 1 and ws[0].is_zero() and ws[0].multiplicity == 6


class TestExponentialType:
    def test_exponential_algebras(self):
        for L in (heisenberg(), filiform4(), axb(), axb_semidirect_plane()):
            res = algebra_is_exponential(L)
            assert res.verdict and not res.heuristic
            for cert in res.certificates:
                assert cert.violation is None
                assert cert.theta == Q(0)

    def test_e2_purely_imaginary_violation(self):
        res = algebra_is_exponential(euclid2())
        assert not res.verdict and not res.heuristic
        violations = {c.violation for c in res.certificates if c.violation}
        assert violations == {"purely imaginary weight"}

    def test_realified_borel_independent_parts(self):
        res = algebra_is_exponential(realified_borel())
        assert not res.verdict and not res.heuristic
        violations = {c.violation for c in res.certificates if c.violation}
        assert violations == {"independent real and imaginary parts"}

    def test_realified_nilpotent_is_exponential(self):
        res = algebra_is_exponential(realify(complex_heisenberg()))
        assert res.verdict and not res.heuristic

    def test_complex_verdict_does_not_depend_on_the_basis(self):
        # complex_borel and a Q(i)-conjugate: their weights' real and imaginary
        # parts differ, but both describe the same real group
        corpus = Path(__file__).resolve().parent.parent / "corpus"
        docs = [json.loads((corpus / "complex_borel.json").read_text()),
                {"dim": 2, "field": "Qi", "brackets": [
                    {"i": 0, "j": 1, "coeffs": {"0": "-2", "1": "2+2i"}}]}]
        for doc in docs:
            L = algebra_from_json(doc)
            for M in (L, realify(L)):
                res = algebra_is_exponential(M)
                assert not res.verdict and not res.heuristic, (doc, M.field)

    def test_certificate_reconstructs_weight(self):
        res = algebra_is_exponential(axb())
        for cert in res.certificates:
            if cert.violation is None:
                for a, b, g in zip(cert.weight.re, cert.weight.im, cert.gamma):
                    # weight = (1 + i theta) gamma
                    assert a == g and b == cert.theta * g

    def test_nonzero_theta_certificate(self):
        # [Y1, Y2] = Y2 - Y3, [Y1, Y3] = Y2 + Y3: weights (1 -+ i) on Y1
        from liegrpd.lie import from_brackets

        L = from_brackets(3, {(0, 1): {1: 1, 2: -1}, (0, 2): {1: 1, 2: 1}})
        res = algebra_is_exponential(L)
        assert res.verdict and not res.heuristic
        thetas = sorted(
            c.theta for c in res.certificates if c.theta not in (None, Q(0))
        )
        assert thetas == [Q(-1), Q(1)]

    def test_heuristic_flag_propagates(self):
        res = algebra_is_exponential(irrational_spectrum_algebra())
        assert res.heuristic
        assert res.verdict  # real weights 1 +- sqrt(2)

    def test_module_version(self):
        L = axb()
        res = exponential_type_test(L, axb_tautological_module())
        assert res.verdict and not res.heuristic


class TestRandomTriangularPairs:
    def build_pair(self, rng, size):
        """Random solvable matrix algebra with its tautological module.

        Generators are upper-triangular with small rational entries plus an
        optional rotation-scaling block, so spectra stay Gaussian-rational.
        """
        from liegrpd.lie import Subspace, from_brackets

        gens = []
        for _ in range(2):
            a = [[Q(0)] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    a[i][j] = Q(rng.randint(-2, 2))
            gens.append(a)
        if rng.random() < 0.5 and size >= 2:
            # embed a 2x2 rotation block: eigenvalues a +- bi
            a, b = rng.randint(-2, 2), rng.randint(1, 2)
            gens[0][0][0], gens[0][0][1] = Q(a), Q(-b)
            gens[0][1][0], gens[0][1][1] = Q(b), Q(a)
            # keep column 0 of the second generator compatible: zero it
            for i in range(1, size):
                gens[1][i][0] = Q(0)
            gens[1][1][0] = Q(0)
            gens[1][0][1] = Q(0)
            gens[1][1][1] = gens[1][0][0]
        mats = [DenseMatrix(g) for g in gens]
        # close under commutators to a Lie algebra of matrices
        basis = []

        def flat(m):
            return tuple(x for row in m.data for x in row)

        def add(m):
            nonlocal basis
            space = Subspace.from_vectors(size * size, [flat(b) for b in basis])
            if not space.contains(flat(m)):
                basis.append(m)
                return True
            return False

        for g in mats:
            add(g)
        changed = True
        while changed:
            changed = False
            for x in list(basis):
                for y in list(basis):
                    c = x @ y - y @ x
                    if any(e != 0 for row in c.data for e in row) and add(c):
                        changed = True
        # express commutators in the basis: structure constants
        rows = [flat(b) for b in basis]
        n = len(basis)
        sparse = {}
        for i in range(n):
            for j in range(i + 1, n):
                c = basis[i] @ basis[j] - basis[j] @ basis[i]
                coeffs = _solve_in_span(rows, flat(c))
                if coeffs is None:
                    return None
                entry = {k: v for k, v in enumerate(coeffs) if v != 0}
                if entry:
                    sparse[(i, j)] = entry
        L = from_brackets(n, sparse)
        from liegrpd.lie import make_module

        M = make_module(L, [Matrix(b.data) for b in basis])
        return L, M

    def test_twenty_random_pairs_dual_negation(self):
        rng = random.Random(2026)
        done = 0
        attempts = 0
        while done < 20 and attempts < 200:
            attempts += 1
            size = rng.choice([2, 2, 3, 3, 4])
            try:
                pair = self.build_pair(rng, size)
            except Exception:
                continue
            if pair is None:
                continue
            L, M = pair
            from liegrpd.lie import structure_series

            if not structure_series(L).is_solvable:
                continue
            ws = module_weights(L, M)
            if any(not w.exact for w in ws):
                continue  # demand Gaussian-rational spectra
            dual_ws = module_weights(L, dual_module(M))
            negated = sorted(
                (tuple(-a for a in w.re), tuple(-a for a in w.im), w.multiplicity)
                for w in ws
            )
            assert weight_multiset(dual_ws) == negated
            done += 1
        assert done == 20


def _solve_in_span(rows, target):
    from dense_reference import solve_exact
    from liegrpd.exact import Matrix as M

    if all(x == 0 for x in target):
        return [Q(0)] * len(rows)
    cols = M(list(zip(*rows)))
    return solve_exact(cols, target)
