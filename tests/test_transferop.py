"""Transfer operators: unitality, positivity, adjoints, invariant measures."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from xferlab import (
    CircleSpace,
    FiniteSpace,
    MatrixOperator,
    Measure,
    Network,
    NormalizationError,
    Observable,
    QMFFilter,
    ReducibleChainWarning,
    adjoint_apply,
    daubechies4,
    haar_filter,
    inner_product,
    invariant_measure,
    kernel_operator,
    pullout_check,
    ruelle_from_endo,
    ruelle_from_filter,
    sample_paths,
    stationarity_residual,
    uniform_circle_operator,
)
from xferlab.transferop import CircleRuelleOperator, composition_isometry_residual

from test_closed_forms import lattice_filter

HAAR_M0 = {0: 2**-0.5, 1: 2**-0.5}


@pytest.fixture
def circle():
    return CircleSpace(degree=32)


@pytest.fixture
def two_state():
    sp = FiniteSpace(("a", "b"))
    return sp, MatrixOperator(sp, [[0.75, 0.25], [0.5, 0.5]])


class TestMatrixOperator:
    def test_rows_must_be_stochastic(self):
        sp = FiniteSpace(("a", "b"))
        with pytest.raises(NormalizationError):
            MatrixOperator(sp, [[0.7, 0.2], [0.5, 0.5]])

    def test_negative_entries_rejected(self):
        sp = FiniteSpace(("a", "b"))
        with pytest.raises(NormalizationError):
            MatrixOperator(sp, [[1.5, -0.5], [0.5, 0.5]])

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

    def test_negative_power_is_refused(self, two_state):
        sp, R = two_state
        with pytest.raises(ValueError, match="k must be >= 0"):
            R.apply_power(Observable.constant(sp, 1.0), -1)

    def test_adjoint_needs_full_support(self, two_state):
        sp, R = two_state
        with pytest.raises(ValueError, match="full support"):
            adjoint_apply(R, Measure.point_mass(sp, 0), Observable.constant(sp, 1.0))

    def test_reducible_chain_warns(self):
        sp = FiniteSpace(("a", "b"))
        R = MatrixOperator(sp, [[1.0, 0.0], [0.0, 1.0]])
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
        # no even coefficient is nonzero, but W_0 = 0 gives R1 = 0
        for weight in ({}, {0: 0.0, 2: 0.0}):
            with pytest.raises(NormalizationError, match="W_0"):
                CircleRuelleOperator(circle, weight)
        with pytest.raises(NormalizationError, match="W_0"):
            ruelle_from_filter(circle, {0: 0.0})

    def test_negative_weight_rejected(self, circle):
        # W = 1/2 + cos(2 pi t) dips below zero but R1 = 1 still holds
        with pytest.raises(NormalizationError):
            CircleRuelleOperator(circle, {0: 0.5, 1: 0.5, -1: 0.5})

    def test_pullout_axiom_holds(self, circle):
        R = ruelle_from_filter(circle, HAAR_M0)
        assert pullout_check(R) < 1e-12

    def test_adjoint_is_the_l2_adjoint(self, circle):
        mu = Measure.haar_measure(circle)
        f = Observable.from_fourier(circle, {0: 1.0, 2: 1j, -3: 0.25})
        g = Observable.from_fourier(circle, {1: 2.0, -1: 0.5, 4: -1j})
        # R* psi = 2 W (psi o r) for every weight W, also one that no filter was given for
        for R in (ruelle_from_filter(circle, HAAR_M0),
                  CircleRuelleOperator(circle, {0: 0.5, 1: 0.2, -1: 0.2, 3: 0.05, -3: 0.05})):
            lhs = inner_product(mu, R.apply(f), g)
            rhs = inner_product(mu, f, adjoint_apply(R, mu, g))
            assert abs(lhs - rhs) < 1e-12

    def test_haar_invariant_only_for_uniform_weight(self, circle):
        assert invariant_measure(uniform_circle_operator(circle)).haar
        with pytest.raises(ValueError):
            invariant_measure(ruelle_from_filter(circle, HAAR_M0))

    def test_branch_weights_off_one_are_refused(self, circle):
        # (0, 0) is not the preimage pair of one angle: W(0) + W(0) = |m0(1)|^2 = 2 for the Haar filter
        R = ruelle_from_filter(circle, HAAR_M0)
        with pytest.raises(NormalizationError, match="sum to 2"):
            R._branch_probabilities(np.array([[Fraction(0), Fraction(0)]], dtype=object))

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


FILTERS = st.one_of(st.sampled_from([haar_filter(), daubechies4()]),
                    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3).map(lattice_filter))
ANGLES = st.integers(1, 2**40).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))


def assert_one_operator(R, S, root):
    """One fingerprint, bit-equal branch probabilities (the walk's input) and identical sampled paths."""
    assert R.fingerprint() == S.fingerprint()
    assert R.transition_weights(root) == S.transition_weights(root)
    assert sample_paths(R, root, 8, 300, 5).samples.tolist() == sample_paths(S, root, 8, 300, 5).samples.tolist()


class TestOneLayoutOfW:
    """W is one dense array: the order of the keys it was given in changes no bit of the operator."""

    @settings(max_examples=60, deadline=None)
    @given(taps=FILTERS.flatmap(lambda h: st.permutations(list(h.m0_coeffs().items()))), root=ANGLES)
    def test_filter_key_order_is_invisible(self, taps, root):
        space = CircleSpace(degree=32)
        assert_one_operator(ruelle_from_filter(space, dict(sorted(taps))), ruelle_from_filter(space, dict(taps)), root)

    @settings(max_examples=60, deadline=None)
    @given(weight=FILTERS.flatmap(
        lambda h: st.permutations(list(ruelle_from_filter(CircleSpace(degree=32), h.m0_coeffs()).weight.items()))),
        root=ANGLES)
    def test_weight_key_order_is_invisible(self, weight, root):
        space = CircleSpace(degree=32)
        R, S = CircleRuelleOperator(space, dict(sorted(weight))), CircleRuelleOperator(space, dict(weight))
        assert_one_operator(R, S, root)
        assert list(S.weight) == sorted(S.weight)  # the view of the dense array, in index order

    @settings(max_examples=80, deadline=None)
    @given(h=FILTERS, t=ANGLES)
    def test_weight_at_a_point_has_its_bits_in_an_array(self, h, t):
        R = ruelle_from_filter(CircleSpace(degree=32), h.m0_coeffs())
        w = R.weight_at(t)
        assert np.ndim(w) == 0 and w == R.weight_at(np.array([t]))[0]


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
            kernel_operator(sp, np.array([[1.0, 0.5], [1.0, 1.0]]), mu)
        # one tolerance for R1 = 1: a row integral 5e-11 off is refused like a row sum
        with pytest.raises(NormalizationError):
            kernel_operator(sp, np.array([[1.0, 1.0 + 1e-10], [1.0, 1.0]]), mu)

    def test_kernel_values_must_be_square(self):
        sp = FiniteSpace(("a", "b"))
        for values in (np.ones((2, 1)), np.ones(2), [[1.0, 1.0]]):
            with pytest.raises(ValueError, match="square"):
                kernel_operator(sp, values, Measure.uniform(sp))

    def test_kernel_operator_is_stochastic(self):
        sp = FiniteSpace(("a", "b", "c"))
        mu = Measure.from_weights(sp, [0.5, 0.25, 0.25])
        vals = np.array([[1.0, 1.0, 1.0], [0.5, 1.5, 1.5], [2.0, 0.0, 0.0]])
        R = kernel_operator(sp, vals, mu)
        assert np.allclose(R.kernel.sum(axis=1), 1.0)


NAN = float("nan")
NAN_INPUTS = {
    "matrix-row": lambda: MatrixOperator(FiniteSpace(("a", "b")), [[NAN, 0.5], [0.5, 0.5]]),
    "kernel-value": lambda: kernel_operator(
        FiniteSpace(("a", "b")), [[NAN, 1.0], [1.0, 1.0]], Measure.uniform(FiniteSpace(("a", "b")))
    ),
    "measure-weight": lambda: Measure.from_weights(FiniteSpace(("a", "b")), [NAN, 0.5]),
    "ruelle-even-weight": lambda: CircleRuelleOperator(CircleSpace(degree=8), {0: 0.5, 2: NAN}),
    "ruelle-odd-weight": lambda: CircleRuelleOperator(CircleSpace(degree=8), {0: 0.5, 1: NAN, -1: NAN}),
    "filter-tap": lambda: QMFFilter.make([NAN, 2**-0.5]),
    "conductance": lambda: Network(FiniteSpace(("a", "b", "c")), [[0, NAN, 1], [NAN, 0, 1], [1, 1, 0]], (0,)),
}


@pytest.mark.parametrize("build", NAN_INPUTS.values(), ids=NAN_INPUTS.keys())
def test_nan_fails_every_normalization_check(build):
    # each tolerance test reads "not err <= tol", since "err > tol" is False for NaN
    with pytest.raises(NormalizationError):
        build()
