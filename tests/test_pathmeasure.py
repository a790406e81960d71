"""Path-space measures: cylinder expectations, sampling, martingales.

The exact oracle throughout is brute-force path enumeration: on a finite
carrier the measure of a cylinder is the sum over all words of products of
transition probabilities, computed here with no operator machinery.
"""

import itertools
import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xferlab import (
    CarrierMismatchError,
    CircleSpace,
    CylinderFunctional,
    EnsembleRequiredError,
    FiniteSpace,
    MatrixOperator,
    Measure,
    NotHarmonicError,
    Observable,
    characterization_check,
    conditional_expectation,
    daubechies4,
    haar_filter,
    consistency_residual,
    correlation,
    correlation_mc,
    cylinder_expectation,
    harmonic_correspondence,
    hitting,
    invariant_measure,
    lift_conditional_residual,
    marginal_distribution,
    marginal_distribution_mc,
    multiplier_identity_residual,
    ruelle_from_endo,
    ruelle_from_filter,
    sample_paths,
    sigma_expectation,
    v2_star,
)
from xferlab import pathmeasure
from xferlab.errors import DegreeOverflowError
from xferlab.pathmeasure import default_word_battery, real_moments
from xferlab.rng import CHUNK

HAAR_M0 = {0: 2**-0.5, 1: 2**-0.5}


def enumerate_expectation(kernel, x, word_values):
    """Oracle: sum over all paths of prod(transition probs) * prod(observables)."""
    n = kernel.shape[0]
    depth = len(word_values)
    total = 0.0
    for path in itertools.product(range(n), repeat=depth - 1):
        full = (x,) + path
        p = 1.0
        for a, b in zip(full[:-1], full[1:]):
            p *= kernel[a, b]
        v = 1.0
        for vals, s in zip(word_values, full):
            v *= vals[s]
        total += p * v
    return total


def path_law(R, root, f):
    """Oracle: every path of the word's depth from root, with its probability and the value of f on it."""
    if isinstance(R.space, CircleSpace):
        steps = R.transition_weights
    else:
        steps = lambda x: enumerate(R.kernel[x])  # noqa: E731
    paths = [((root,), 1.0)]
    for _ in range(f.depth - 1):
        paths = [(p + (y,), w * q) for p, w in paths for y, q in steps(p[-1])]
    return np.array([w for _, w in paths]), np.array([complex(f.evaluate(p)) for p, _ in paths])


def real_moments_of(probs, values) -> tuple[float, float]:
    """Oracle: the mean and the standard deviation of Re f from the law of the paths."""
    mean = probs @ values.real
    return mean, math.sqrt(probs @ (values.real - mean) ** 2)


@pytest.fixture
def two_state():
    sp = FiniteSpace(("a", "b"))
    return sp, MatrixOperator(sp, [[0.75, 0.25], [0.5, 0.5]])


@pytest.fixture
def circle_R():
    space = CircleSpace(degree=32)
    return space, ruelle_from_filter(space, HAAR_M0)


class TestCylinderExpectations:
    def test_matches_enumeration_oracle(self, two_state):
        sp, R = two_state
        rng = np.random.default_rng(5)
        for depth in range(1, 6):
            vals = [rng.standard_normal(2) for _ in range(depth)]
            word = CylinderFunctional(tuple(Observable.from_values(sp, v) for v in vals))
            for x in (0, 1):
                exact = cylinder_expectation(R, x, word)
                oracle = enumerate_expectation(R.kernel, x, vals)
                assert exact == pytest.approx(oracle, abs=1e-12)

    def test_frozen_depth3_value(self, two_state):
        sp, R = two_state
        chi = Observable.indicator(sp, 0)
        word = CylinderFunctional((chi, chi, chi))
        # oracle value: 0.75^2 = 0.5625 (stay at state a twice)
        assert cylinder_expectation(R, 0, word) == pytest.approx(0.5625, abs=1e-15)

    def test_kolmogorov_consistency(self, two_state):
        sp, R = two_state
        for f in default_word_battery(sp, max_depth=5, seed=2):
            assert consistency_residual(R, 0, f) < 1e-12

    @pytest.mark.parametrize("depth", [13, 40])
    def test_deep_words_are_operator_powers(self, two_state, depth):
        """No depth cap: a word of any depth costs depth - 1 applications of R."""
        sp, R = two_state
        one = Observable.constant(sp, 1.0)
        phi = Observable.from_values(sp, [1.0, -2.0])
        word = CylinderFunctional((one,) * (depth - 1) + (phi,))
        lhs = conditional_expectation(R, word)
        assert np.max(np.abs(lhs.values - R.apply_power(phi, depth - 1).values)) < 1e-12

    def test_sigma_expectation_averages_the_root(self, two_state):
        sp, R = two_state
        mu = invariant_measure(R)
        chi = Observable.indicator(sp, 0)
        word = CylinderFunctional((chi, chi))
        expect = sum(
            mu.weights[x] * cylinder_expectation(R, x, word) for x in range(sp.n)
        )
        assert sigma_expectation(mu, R, word) == pytest.approx(expect)

    @pytest.mark.parametrize("x", [-1, 3, 1.0, True, "d"])
    @pytest.mark.parametrize("entry", ["cylinder_expectation", "consistency_residual", "lift_conditional_residual"])
    def test_a_point_outside_the_states_is_refused(self, entry, x):
        sp = FiniteSpace(("a", "b", "c"), endo=(1, 2, 0))
        R = ruelle_from_endo(sp)
        word = CylinderFunctional((Observable.from_values(sp, [1.0, 2.0, 3.0]),) * 2)
        calls = {
            "cylinder_expectation": lambda: cylinder_expectation(R, x, word),
            "consistency_residual": lambda: consistency_residual(R, x, word),
            "lift_conditional_residual": lambda: lift_conditional_residual(R, [word], [x]),
        }
        with pytest.raises(ValueError, match="a point is a state index"):
            calls[entry]()

    def test_circle_expectation_is_exact_coefficient_arithmetic(self, circle_R):
        space, R = circle_R
        e1 = Observable.character(space, 1)
        word = CylinderFunctional((e1, e1.conj()))
        out = conditional_expectation(R, word)
        # e_1(x) * R(e_{-1})(x) with R(e_{-1}) = (1/2) e_{-1} + ... for the Haar weight
        oracle = e1 * R.apply(e1.conj())
        assert (out - oracle).coeff_norm() == 0.0


class TestSampling:
    def test_finite_sampling_reproducible(self, two_state):
        sp, R = two_state
        a = sample_paths(R, 0, 4, 1000, seed=9)
        b = sample_paths(R, 0, 4, 1000, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_chunked_merge_reproduces_serial(self, two_state):
        sp, R = two_state
        n = CHUNK + 123
        serial = sample_paths(R, 0, 3, n, seed=4)
        # a parallel run would draw each chunk independently; emulate it
        first = sample_paths(R, 0, 3, CHUNK, seed=4)
        assert np.array_equal(serial.samples[:CHUNK], first.samples)

    def test_mc_agrees_with_exact(self, two_state):
        sp, R = two_state
        chi = Observable.indicator(sp, 0)
        word = CylinderFunctional((chi, chi, chi))
        ens = sample_paths(R, 0, 3, 100_000, seed=11)
        mean, stderr = ens.functional_mean(word)
        assert abs(mean - 0.5625) < 4 * stderr

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 30), depth=st.integers(1, 4), seed=st.integers(0, 2**31))
    @example(n=2, depth=2, seed=2221)  # a branch of probability 5e-5 never drawn: the sample sigma reads 5e-18
    def test_finite_mc_mean_is_within_six_sigma_of_exact(self, n, depth, seed):
        rng = np.random.default_rng(seed)
        sp = FiniteSpace(tuple(range(n)))
        R = MatrixOperator(sp, rng.dirichlet(np.ones(n), size=n))
        root = int(rng.integers(n))
        word = CylinderFunctional(tuple(Observable.from_values(sp, rng.uniform(-1, 1, n)) for _ in range(depth)))
        mean, _ = sample_paths(R, root, depth, 2000, seed).functional_mean(word)
        exact = complex(cylinder_expectation(R, root, word)).real
        sigma = math.sqrt(max(complex(cylinder_expectation(R, root, word * word)).real - exact**2, 0.0))
        assert abs(mean - exact) <= 6 * sigma / math.sqrt(2000) + 1e-12  # 1e-12: rounding when sigma is 0

    def test_circle_walk_refuses_a_measure_root(self, circle_R):
        space, R = circle_R
        with pytest.raises(ValueError, match="mu-rooted sampling"):
            sample_paths(R, Measure.haar_measure(space), 3, 10, seed=1)

    def test_mu_rooted_sampling(self, two_state):
        sp, R = two_state
        mu = invariant_measure(R)
        ens = sample_paths(R, mu, 2, 50_000, seed=3)
        chi = Observable.indicator(sp, 0)
        mean, stderr = ens.functional_mean(CylinderFunctional((chi,)))
        assert abs(mean - 2 / 3) < 4 * stderr

    def test_circle_sampling_exact_angles(self, circle_R):
        space, R = circle_R
        ens = sample_paths(R, Fraction(0), 5, 200, seed=7)
        for path in ens.samples:
            for a, b in zip(path[:-1], path[1:]):
                assert (2 * b) % 1 == a

    @settings(max_examples=40, deadline=None)
    @given(
        d4=st.booleans(),
        root=st.integers(1, 50).flatmap(lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))),
        depth=st.integers(1, 6),
        dicts=st.lists(
            st.dictionaries(st.integers(-8, 8), st.complex_numbers(max_magnitude=3, allow_nan=False,
                                                                   allow_infinity=False), min_size=1),
            min_size=1, max_size=6),
        seed=st.integers(0, 2**31),
    )
    def test_circle_mean_matches_per_path_evaluation(self, d4, root, depth, dicts, seed):
        space = CircleSpace(degree=8)
        R = ruelle_from_filter(space, (daubechies4() if d4 else haar_filter()).m0_coeffs())
        ens = sample_paths(R, root, depth, 97, seed)
        word = CylinderFunctional(tuple(Observable.from_fourier(space, d) for d in dicts[:depth]))
        mean, _ = ens.functional_mean(word)
        ref = np.mean([word.evaluate(path).real for path in ens.samples])
        l1 = math.prod(sum(abs(c) for c in d.values()) for d in dicts[:depth])
        assert abs(mean - ref) <= 1e-12 * l1

    def test_word_deeper_than_the_paths_is_refused(self, two_state, circle_R):
        for space, R, root in ((two_state[0], two_state[1], 0), (*circle_R, Fraction(1, 3))):
            one = Observable.constant(space, 1.0)
            ens = sample_paths(R, root, 2, 10, seed=1)
            with pytest.raises(ValueError):
                ens.functional_mean(CylinderFunctional((one, one, one)))

    def test_csv_roundtrip(self, two_state, tmp_path):
        sp, R = two_state
        ens = sample_paths(R, 0, 3, 10, seed=1)
        out = tmp_path / "paths.csv"
        ens.to_csv(out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x1,x2,x3"
        assert len(rows) == 11


@pytest.fixture(params=["finite", "circle"])
def carrier(request, two_state, circle_R):
    """(space, operator, root, a second operator on the same space) on each carrier."""
    if request.param == "finite":
        sp, R = two_state
        return sp, R, 1, MatrixOperator(sp, [[0.5, 0.5], [0.5, 0.5]])
    space, R = circle_R
    return space, R, Fraction(2, 7), ruelle_from_filter(space, daubechies4().m0_coeffs())


class TestRealMoments:
    """real_moments gives the mean and the standard deviation of Re f over all paths, weighted by their law."""

    WORD = ([1 + 2j, -0.5j], [0.25, 1 - 1j], [2j, 3.0])

    def test_finite_point_root(self, two_state):
        sp, R = two_state
        f = CylinderFunctional(tuple(Observable.from_values(sp, v) for v in self.WORD))
        assert real_moments(R, 1, f) == pytest.approx(real_moments_of(*path_law(R, 1, f)), abs=1e-12)

    def test_finite_measure_root(self, two_state):
        sp, R = two_state
        f = CylinderFunctional(tuple(Observable.from_values(sp, v) for v in self.WORD))
        laws = [path_law(R, x, f) for x in (0, 1)]
        probs = np.concatenate([0.25 * laws[0][0], 0.75 * laws[1][0]])
        values = np.concatenate([laws[0][1], laws[1][1]])
        mu = Measure.from_weights(sp, [0.25, 0.75])
        assert real_moments(R, mu, f) == pytest.approx(real_moments_of(probs, values), abs=1e-12)

    def test_circle_products_beyond_the_degree_bound(self):
        # f f has degree 16 on a carrier of degree 8: the second moments are taken on the circle of degree 16
        space = CircleSpace(degree=8)
        R = ruelle_from_filter(space, daubechies4().m0_coeffs())
        root = Fraction(1, 3)
        f = CylinderFunctional((Observable.from_fourier(space, {-3: 0.5j, 1: 1.0, 3: -0.25}),
                                Observable.from_fourier(space, {-8: 1.0, 1: 0.5, 7: 1j})))
        with pytest.raises(DegreeOverflowError):
            cylinder_expectation(R, root, f * f)
        mean, sigma = real_moments(R, root, f)
        assert mean == cylinder_expectation(R, root, f).real  # the bits of the carrier's own recursion
        oracle = real_moments_of(*path_law(R, root, f))
        assert oracle[1] > 0.5 and (mean, sigma) == pytest.approx(oracle, abs=1e-12)
        assert R.lifted().space == CircleSpace(degree=16) and R.space == space


class TestEnsembleLayout:
    def test_samples_are_one_array_of_points(self, carrier):
        space, R, root, _ = carrier
        ens = sample_paths(R, root, 4, 30, seed=2)
        assert ens.samples.shape == (30, 4) and ens.count == 30
        assert all(x == root for x in ens.samples[:, 0])
        if isinstance(space, CircleSpace):
            assert ens.samples.dtype == object and all(type(t) is Fraction for t in ens.samples.flat)
        else:
            assert ens.samples.dtype == np.intp

    def test_merge_concatenates_the_rows(self, carrier):
        _, R, root, _ = carrier
        a = sample_paths(R, root, 4, 50, seed=1)
        b = sample_paths(R, root, 4, 30, seed=2)
        merged = a.merge(b)
        assert merged.count == a.count + b.count == 80
        assert merged.samples.dtype == a.samples.dtype
        assert merged.samples.tolist() == a.samples.tolist() + b.samples.tolist()

    def test_merge_refuses_another_experiment(self, carrier):
        _, R, root, other = carrier
        a = sample_paths(R, root, 4, 10, seed=1)
        for b in (sample_paths(other, root, 4, 10, seed=1), sample_paths(R, root, 3, 10, seed=1)):
            with pytest.raises(CarrierMismatchError):
                a.merge(b)

    def test_merge_refuses_another_root(self, carrier):
        space, R, root, _ = carrier
        other = 0 if isinstance(space, FiniteSpace) else Fraction(1, 5)
        a = sample_paths(R, root, 4, 5, seed=1)
        with pytest.raises(CarrierMismatchError, match="root") as refused:
            a.merge(sample_paths(R, other, 4, 5, seed=1))
        assert str(refused.value).endswith(f"{root!r}) vs ('{a.fingerprint}', 4, {other!r})")
        assert a.merge(sample_paths(R, root, 4, 5, seed=2)).count == 10

    def test_merge_compares_measure_roots_by_their_weights(self, two_state):
        sp, R = two_state
        a = sample_paths(R, Measure.from_weights(sp, [0.25, 0.75]), 3, 5, seed=1)
        assert a.merge(sample_paths(R, Measure.from_weights(sp, [0.25, 0.75]), 3, 5, seed=2)).count == 10
        for other in (Measure.from_weights(sp, [0.75, 0.25]), 1):
            with pytest.raises(CarrierMismatchError, match="root"):
                a.merge(sample_paths(R, other, 3, 5, seed=1))

    def test_black_box_mean_matches_the_word_mean(self, carrier):
        space, R, root, _ = carrier
        ens = sample_paths(R, root, 4, 300, seed=5)
        rng = np.random.default_rng(6)
        word = CylinderFunctional(tuple(space.random_observable(rng) for _ in range(3)))
        black_box, exact_word = ens.functional_mean(word.evaluate), ens.functional_mean(word)
        assert np.max(np.abs(np.subtract(black_box, exact_word))) <= 1e-12
        with pytest.raises(TypeError):  # a callable must return one scalar per path
            ens.functional_mean(word.word[0])

    def test_observable_on_an_array_of_points_matches_per_point_calls(self, carrier):
        space, R, root, _ = carrier
        ens = sample_paths(R, root, 5, 200, seed=3)
        rng = np.random.default_rng(4)
        phi = space.random_observable(rng)
        for j in range(ens.depth):
            column = ens.samples[:, j]
            got, ref = phi(column), np.array([phi(x) for x in column])
            if isinstance(space, CircleSpace):
                # array and scalar complex arithmetic may round differently (fused multiply-add)
                l1 = float(np.abs(phi.coeffs).sum())
                assert np.max(np.abs(got - ref)) <= 4 * (phi.coeffs.size + 1) * np.finfo(float).eps * l1
            else:
                assert np.array_equal(got, ref)

    def test_root_out_of_range_is_refused(self, two_state):
        sp, R = two_state
        for bad in (-1, 2, 1.5, True):
            with pytest.raises(ValueError):
                sample_paths(R, bad, 3, 10, seed=1)
        assert sample_paths(R, "b", 3, 10, seed=1).samples[:, 0].tolist() == [1] * 10

    @pytest.mark.parametrize("states", [("x", "y"), ("x", "y", "z")])
    def test_measure_root_from_another_carrier_is_refused(self, two_state, states):
        # the same state count too: a measure on (x, y) is not a measure on (a, b)
        sp, R = two_state
        with pytest.raises(CarrierMismatchError):
            sample_paths(R, Measure.uniform(FiniteSpace(states)), 3, 10, seed=1)


class TestOperatorPair:
    def test_v1_star_of_deep_coordinate_is_operator_power(self, two_state):
        """V1* V_{n+1} = R^n on the indicator basis; V1* is conditional_expectation."""
        sp, R = two_state
        one = Observable.constant(sp, 1.0)
        for n in range(6):
            for phi in (Observable.indicator(sp, 0), Observable.indicator(sp, 1)):
                word = CylinderFunctional((one,) * n + (phi,))
                lhs = conditional_expectation(R, word)
                rhs = R.apply_power(phi, n)
                assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12

    def test_black_box_function_requires_ensemble(self, two_state):
        sp, R = two_state
        with pytest.raises(EnsembleRequiredError):
            conditional_expectation(R, lambda path: 1.0)

    def test_multiplier_identity(self, two_state):
        sp, R = two_state
        mu = invariant_measure(R)
        words = default_word_battery(sp, max_depth=3, seed=8)
        assert multiplier_identity_residual(R, mu, words) < 1e-12

    def test_multiplier_identity_circle(self, circle_R):
        space, R = circle_R
        mu = Measure.haar_measure(space)
        words = default_word_battery(space, max_depth=3, per_depth=3, seed=8)
        assert multiplier_identity_residual(R, mu, words) < 1e-10

    def test_v2_star_head_is_adjoint(self, two_state):
        sp, R = two_state
        mu = invariant_measure(R)
        phi = Observable.from_values(sp, [1.0, -1.0])
        from xferlab import adjoint_apply

        out = v2_star(R, mu, CylinderFunctional((phi,)))
        assert np.allclose(out.values, adjoint_apply(R, mu, phi).values)

    def test_characterization_of_induced_measure(self, two_state):
        sp, R = two_state
        mu = invariant_measure(R)
        assert characterization_check(mu, R) < 1e-12


class TestCorrelations:
    def test_exact_values_and_geometric_decay(self, two_state):
        sp, R = two_state
        mu = invariant_measure(R)
        chi = Observable.indicator(sp, 0)
        assert correlation(mu, R, chi, chi, 1) == pytest.approx(0.5)
        # decay to the product of means at the second eigenvalue rate 1/4
        for k in range(1, 10):
            gap = correlation(mu, R, chi, chi, k) - 4 / 9
            assert gap == pytest.approx((2 / 9) * 0.25**k, abs=1e-12)

    def test_nonstationary_measure_warns(self, two_state):
        sp, R = two_state
        mu = Measure.from_weights(sp, [0.9, 0.1])
        chi = Observable.indicator(sp, 0)
        with pytest.warns(UserWarning):
            correlation(mu, R, chi, chi, 1)

    def test_mc_correlation(self, two_state):
        sp, R = two_state
        mu = invariant_measure(R)
        chi = Observable.indicator(sp, 0)
        ens = sample_paths(R, mu, 3, 100_000, seed=17)
        mean, stderr = correlation_mc(ens, chi, chi, 1, 1)
        assert abs(mean - 0.5) < 4 * stderr

    def test_marginal_distribution_is_n_independent_when_stationary(self, two_state):
        sp, R = two_state
        mu = invariant_measure(R)
        phi = Observable.from_values(sp, [0.0, 1.0])
        vals = [marginal_distribution(mu, R, phi, 0.5, n) for n in (1, 2, 5)]
        assert max(vals) - min(vals) < 1e-12
        assert vals[0] == pytest.approx(2 / 3)
        ens = sample_paths(R, mu, 5, 100_000, seed=23)
        mean, stderr = marginal_distribution_mc(ens, phi, 0.5, 5)
        assert abs(mean - 2 / 3) < 4 * stderr

    # these used to return numbers: on the indicator of state a, 0.6675 at n = 0, k = 2 (exact 0.458)
    # and 0.512 at n = -1, k = 3 (exact 0.448); n = 0, k = 0 raised a bare IndexError
    @pytest.mark.parametrize("n, k", [(0, 2), (-1, 3), (0, 0), (1, -1)])
    def test_mc_correlation_refuses_a_coordinate_below_one(self, two_state, n, k):
        sp, R = two_state
        ens = sample_paths(R, invariant_measure(R), 4, 2000, seed=1)
        chi = Observable.indicator(sp, 0)
        with pytest.raises(ValueError, match=f"n >= 1 and k >= 0 .*, got n = {n}, k = {k}"):
            correlation_mc(ens, chi, chi, n, k)

    @pytest.mark.parametrize("n", [0, -1])
    def test_marginal_distribution_refuses_a_coordinate_below_one(self, two_state, n):
        sp, R = two_state
        mu = invariant_measure(R)
        phi = Observable.from_values(sp, [0.0, 1.0])
        ens = sample_paths(R, mu, 4, 2000, seed=1)
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            marginal_distribution(mu, R, phi, 0.5, n)
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):  # n = 0 used to read the n = 1 marginal
            marginal_distribution_mc(ens, phi, 0.5, n)


class TestHarmonicCorrespondence:
    @pytest.fixture
    def gambler(self):
        sp = FiniteSpace(("lose", "mid", "win"))
        R = MatrixOperator(sp, [[1, 0, 0], [0.5, 0, 0.5], [0, 0, 1]])
        h = Observable.from_values(sp, [0.0, 0.5, 1.0])
        return sp, R, h

    def test_martingale_property(self, gambler):
        sp, R, h = gambler
        rep = harmonic_correspondence(R, h)
        assert rep.harmonic_residual < 1e-12

    def test_boundary_values_recover_h(self, gambler):
        sp, R, h = gambler
        rep = harmonic_correspondence(R, h)
        assert rep.absorbing_states == [0, 2]
        assert rep.boundary_residual < 1e-12

    def test_mc_absorption(self, gambler):
        sp, R, h = gambler
        rep = hitting(R, h.values, start=1, count=50_000, seed=2)
        assert rep.capped == 0 and rep.exact == 0.5
        assert abs(rep.estimate - 0.5) < 4 * rep.stderr

    def test_non_harmonic_rejected(self, gambler):
        sp, R, _ = gambler
        bad = Observable.from_values(sp, [0.0, 0.7, 1.0])
        with pytest.raises(NotHarmonicError):
            harmonic_correspondence(R, bad)

    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 0, 1], [0, 1, 0]],  # I - Q singular
                                      [[1, 0, 0], [0, 1 / 3, 2 / 3], [0, 2 / 3, 1 / 3]]])  # singular up to rounding
    def test_states_that_never_absorb_are_named(self, rows, monkeypatch):
        sp = FiniteSpace(("a", "b", "c"))
        with pytest.raises(ValueError, match=r"states \[1, 2\] never reach"):
            harmonic_correspondence(MatrixOperator(sp, rows), Observable.constant(sp, 1.0))

        def never(*args):
            raise AssertionError("sampled a walk that never absorbs")

        monkeypatch.setattr(pathmeasure, "simulate_absorbing", never)
        with pytest.raises(ValueError, match=r"states \[1, 2\] never reach"):
            hitting(MatrixOperator(sp, rows), [1.0, 0.0, 0.0], 1, 10, 1)


@st.composite
def real_words(draw):
    """Real cylinder words (c_{-n} = conj c_n) of depth 1-4 and degree <= 3."""
    coeff = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
    word = []
    for _ in range(draw(st.integers(1, 4))):
        c = {0: complex(draw(st.floats(-2, 2)))}
        for n in range(1, draw(st.integers(0, 3)) + 1):
            c[n] = draw(coeff)
            c[-n] = c[n].conjugate()
        word.append(c)
    return word


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d4=st.booleans(),
    root=st.fractions(0, 1).filter(lambda t: t.denominator <= 50 and t < 1),
    word=real_words(),
    seed=st.integers(0, 2**31),
)
def test_circle_walk_mean_matches_the_cylinder_expectation(d4, root, word, seed):
    space = CircleSpace(degree=32)
    R = ruelle_from_filter(space, (daubechies4() if d4 else haar_filter()).m0_coeffs())
    f = CylinderFunctional(tuple(Observable.from_fourier(space, c) for c in word))
    n = 4096
    mean, _ = sample_paths(R, root, len(word), n, seed).functional_mean(f)
    exact = cylinder_expectation(R, root, f).real
    var = max(cylinder_expectation(R, root, f * f).real - exact**2, 0.0)
    assert abs(mean - exact) <= 6 * math.sqrt(var / n) + 1e-12 * (1 + abs(exact))


D4_CIRCLE = ruelle_from_filter(CircleSpace(), daubechies4().m0_coeffs())


@st.composite
def chunk_experiments(draw):
    """A random finite kernel rooted at a state or at a measure, or D4 rooted at a p/q angle."""
    kind = draw(st.sampled_from(["point", "mu", "d4"]))
    if kind == "d4":
        q = draw(st.sampled_from([1, 3, 7, 2**31 - 1]))
        return D4_CIRCLE, Fraction(draw(st.integers(0, q - 1)), q)
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sp = FiniteSpace(tuple(range(n)))
    R = MatrixOperator(sp, rng.dirichlet(np.ones(n), size=n))
    if kind == "point":
        return R, draw(st.integers(0, n - 1))
    return R, Measure.from_weights(sp, rng.dirichlet(np.ones(n)))


@settings(max_examples=30, deadline=None)
@given(experiment=chunk_experiments(), k=st.sampled_from([1, 2]), r=st.integers(1, CHUNK - 1),
       depth=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_a_longer_run_starts_with_the_shorter_run_and_merges_onto_it(experiment, k, r, depth, seed):
    R, root = experiment
    short = sample_paths(R, root, depth, k * CHUNK, seed)
    long = sample_paths(R, root, depth, k * CHUNK + r, seed)
    assert np.array_equal(long.samples[: k * CHUNK], short.samples)
    merged = short.merge(long)
    assert merged.samples.shape == (2 * k * CHUNK + r, depth)
    assert np.array_equal(merged.samples, np.concatenate([short.samples, long.samples]))
