"""Transfer operators: unitality, positivity, adjoints, invariant measures."""

import numpy as np
import pytest
from fractions import Fraction

from xferlab import (
    CircleSpace,
    FiniteSpace,
    Measure,
    NormalizationError,
    Observable,
    ReducibleChainWarning,
    adjoint_apply,
    inner_product,
    invariant_measure,
    kernel_operator,
    matrix_operator,
    pullout_check,
    ruelle_from_endo,
    ruelle_from_filter,
    stationarity_residual,
    uniform_circle_operator,
)
from xferlab.transferop import IntegralKernel, composition_isometry_residual

HAAR_M0 = {0: 2**-0.5, 1: 2**-0.5}


@pytest.fixture
def circle():
    return CircleSpace(degree=32, grid=256)


@pytest.fixture
def two_state():
    sp = FiniteSpace(("a", "b"))
    return sp, matrix_operator(sp, [[0.75, 0.25], [0.5, 0.5]])


class TestMatrixOperator:
    def test_rows_must_be_stochastic(self):
        sp = FiniteSpace(("a", "b"))
        with pytest.raises(NormalizationError):
            matrix_operator(sp, [[0.7, 0.2], [0.5, 0.5]])

    def test_negative_entries_rejected(self):
        sp = FiniteSpace(("a", "b"))
        with pytest.raises(NormalizationError):
            matrix_operator(sp, [[1.5, -0.5], [0.5, 0.5]])

    def test_unital(self, two_state):
        sp, R = two_state
        one = Observable.constant(sp, 1.0)
        assert np.allclose(R.apply(one).values, 1.0)

    def test_positive(self, two_state):
        sp, R = two_state
        f = Observable.from_values(sp, [0.3, 1.7])
        assert np.all(R.apply(f).values >= 0)

    def test_stationary_measure_matches_eigen_oracle(self, two_state):
        sp, R = two_state
        mu = invariant_measure(R)
        # oracle: left eigenvector of the kernel for eigenvalue 1
        vals, vecs = np.linalg.eig(R.kernel.T)
        v = np.real(vecs[:, np.argmin(np.abs(vals - 1))])
        v = v / v.sum()
        assert np.max(np.abs(mu.weights - v)) < 1e-12
        assert mu.weights == pytest.approx([2 / 3, 1 / 3])
        assert stationarity_residual(R, mu) < 1e-12

    def test_reducible_chain_warns(self):
        sp = FiniteSpace(("a", "b"))
        R = matrix_operator(sp, [[1.0, 0.0], [0.0, 1.0]])
        with pytest.warns(ReducibleChainWarning):
            invariant_measure(R)

    def test_adjoint_is_the_l2_adjoint(self, two_state):
        sp, R = two_state
        mu = invariant_measure(R)
        f = Observable.from_values(sp, [1.0, -2.0])
        g = Observable.from_values(sp, [0.5, 3.0])
        lhs = inner_product(mu, R.apply(f), g)
        rhs = inner_product(mu, f, adjoint_apply(R, mu, g))
        assert lhs == pytest.approx(rhs)


class TestCircleRuelleOperator:
    def test_haar_filter_weight_is_qmf(self, circle):
        R = ruelle_from_filter(circle, HAAR_M0)
        one = Observable.constant(circle, 1.0)
        assert (R.apply(one) - one).coeff_norm() < 1e-12

    def test_apply_matches_quadrature_oracle(self, circle):
        R = ruelle_from_filter(circle, HAAR_M0)
        f = Observable.from_fourier(circle, {0: 1.0, 1: 2.0, -2: 1j, 3: 0.25})
        out = R.apply(f)
        # oracle: pointwise sum over the two square roots, on rational angles
        for t in (Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(5, 8)):
            u0, u1 = CircleSpace.preimages(t)
            expect = R.weight_at(u0) * f(u0) + R.weight_at(u1) * f(u1)
            assert abs(out(t) - expect) < 1e-12

    def test_non_unital_weight_rejected(self, circle):
        with pytest.raises(NormalizationError):
            ruelle_from_filter(circle, {0: 1.0, 1: 1.0})  # sums to 2, not sqrt(2)

    def test_zero_weight_rejected(self, circle):
        from xferlab.transferop import CircleRuelleOperator

        # no even coefficient is nonzero, but W_0 = 0 gives R1 = 0
        for weight in ({}, {0: 0.0, 2: 0.0}):
            with pytest.raises(NormalizationError, match="W_0"):
                CircleRuelleOperator(circle, weight)
        with pytest.raises(NormalizationError, match="W_0"):
            ruelle_from_filter(circle, {0: 0.0})

    def test_negative_weight_rejected(self, circle):
        from xferlab.transferop import CircleRuelleOperator

        # W = 1/2 + cos(2 pi t) dips below zero but R1 = 1 still holds
        with pytest.raises(NormalizationError):
            CircleRuelleOperator(circle, {0: 0.5, 1: 0.5, -1: 0.5})

    def test_pullout_axiom_holds(self, circle):
        R = ruelle_from_filter(circle, HAAR_M0)
        assert pullout_check(R) < 1e-12

    def test_adjoint_is_the_l2_adjoint(self, circle):
        R = ruelle_from_filter(circle, HAAR_M0)
        mu = Measure.haar_measure(circle)
        f = Observable.from_fourier(circle, {0: 1.0, 2: 1j})
        g = Observable.from_fourier(circle, {1: 2.0, -1: 0.5})
        lhs = inner_product(mu, R.apply(f), g)
        rhs = inner_product(mu, f, adjoint_apply(R, mu, g))
        assert abs(lhs - rhs) < 1e-12

    def test_haar_invariant_only_for_uniform_weight(self, circle):
        assert invariant_measure(uniform_circle_operator(circle)).haar
        with pytest.raises(ValueError):
            invariant_measure(ruelle_from_filter(circle, HAAR_M0))

    def test_transition_weights_are_probabilities(self, circle):
        R = ruelle_from_filter(circle, HAAR_M0)
        branches = R.transition_weights(Fraction(1, 3))
        assert sum(p for _, p in branches) == pytest.approx(1.0)
        for u, _ in branches:
            assert (2 * u) % 1 == Fraction(1, 3)

    def test_composition_isometry_iff_qmf(self, circle):
        assert composition_isometry_residual(HAAR_M0, circle) < 1e-12
        bad = {0: 1.0, 1: 2**0.5 - 1}  # normalized sum but not QMF
        assert composition_isometry_residual(bad, circle) > 1e-3


class TestFiniteRuelle:
    def test_endo_ruelle_is_permutation_pullback(self):
        sp = FiniteSpace(("a", "b", "c"), endo=(1, 2, 0))
        R = ruelle_from_endo(sp)
        f = Observable.from_values(sp, [1.0, 2.0, 3.0])
        # (R f)(x) = f(r^{-1} x) since fibers are singletons with weight 1
        out = R.apply(f)
        for i in range(sp.n):
            (j,) = sp.fiber(i)
            assert out.values[i] == f.values[j]

    def test_endo_ruelle_satisfies_pullout(self):
        sp = FiniteSpace(("a", "b", "c"), endo=(1, 2, 0))
        assert pullout_check(ruelle_from_endo(sp)) < 1e-12


class TestIntegralKernel:
    def test_kernel_rows_must_integrate_to_one(self):
        sp = FiniteSpace(("a", "b"))
        mu = Measure.uniform(sp)
        with pytest.raises(NormalizationError):
            IntegralKernel(sp, np.array([[1.0, 0.5], [1.0, 1.0]]), mu)

    def test_kernel_operator_is_stochastic(self):
        sp = FiniteSpace(("a", "b", "c"))
        mu = Measure.from_weights(sp, [0.5, 0.25, 0.25])
        vals = np.array([[1.0, 1.0, 1.0], [0.5, 1.5, 1.5], [2.0, 0.0, 0.0]])
        R = kernel_operator(IntegralKernel(sp, vals, mu))
        assert np.allclose(R.kernel.sum(axis=1), 1.0)
