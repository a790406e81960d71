"""Carrier-level algebra: observables, measures, endomorphism composition."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from xferlab import (
    CircleRuelleOperator,
    CircleSpace,
    DegreeOverflowError,
    FiniteSpace,
    Measure,
    NoEndomorphismError,
    NormalizationError,
    Observable,
    adjoint_apply,
    compose_with_endo,
    daubechies4,
    fiber_average,
    inner_product,
    integrate,
    ruelle_from_filter,
    strong_invariance_check,
)
from xferlab.pathmeasure import CylinderFunctional, mean_stderr, sample_paths
from xferlab.serialize import space_from_json
from xferlab.statespace import HORNER_SPLIT, horner, worst


def convolve_coeffs(a, b) -> dict[int, complex]:
    """Oracle: coefficient convolution of two coefficient maps by the term-by-term dict loop."""
    out: dict[int, complex] = {}
    for n, cn in a.items():
        for m, cm in b.items():
            out[n + m] = out.get(n + m, 0) + cn * cm
    return {k: v for k, v in out.items() if v != 0}


@pytest.fixture
def circle():
    return CircleSpace(degree=16)


@pytest.fixture
def chain():
    return FiniteSpace(("a", "b", "c"), endo=(1, 2, 0))


class TestFiniteSpace:
    def test_endo_must_be_onto(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a", "b"), endo=(0, 0))

    def test_fibers_are_singletons(self, chain):
        for i in range(chain.n):
            assert len(chain.fiber(i)) == 1

    def test_fiber_inverts_endo(self, chain):
        for i in range(chain.n):
            (j,) = chain.fiber(i)
            assert chain.forward(j) == i

    def test_no_endo_raises(self):
        sp = FiniteSpace(("a", "b"))
        with pytest.raises(NoEndomorphismError):
            sp.fiber(0)

    def test_points_are_checked_not_coerced(self, chain):
        assert chain.point(2) == chain.point(np.int64(2)) == chain.point("c") == 2
        for bad in (-1, 3, 1.5, 1.0, True, "z", "1", None):
            with pytest.raises(ValueError):
                chain.point(bad)

    @given(perm=st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([float, complex, int]))
    @settings(max_examples=100, deadline=None)
    def test_fiber_average_is_the_inverse_permutation_gather(self, perm, seed, dtype):
        sp = FiniteSpace(tuple(range(len(perm))), endo=tuple(perm))
        values = (np.random.default_rng(seed).standard_normal(sp.n) * 100).astype(dtype)
        phi = Observable.from_values(sp, values)
        oracle = np.empty(sp.n, dtype=values.dtype)  # the per-fiber average, one fiber at a time
        for i in range(sp.n):
            fib = sp.fiber(i)
            oracle[i] = sum(values[j] for j in fib) / len(fib)
        got = fiber_average(phi).values
        assert got.dtype == oracle.dtype and np.array_equal(got, oracle)


class TestObservableAlgebra:
    def test_product_is_coefficient_convolution(self, circle):
        f = Observable.from_fourier(circle, {0: 1.0, 1: 2.0})
        g = Observable.from_fourier(circle, {-1: 0.5, 2: 1.0})
        prod = f * g
        # oracle: pointwise multiplication on the grid
        grid = np.arange(circle.grid) / circle.grid
        assert np.max(np.abs(prod(grid) - f(grid) * g(grid))) < 1e-12

    def test_degree_overflow_is_an_error_not_truncation(self, circle):
        f = Observable.character(circle, circle.degree)
        with pytest.raises(DegreeOverflowError):
            _ = f * f

    def test_conj_on_circle_reflects_indices(self, circle):
        f = Observable.from_fourier(circle, {1: 1 + 2j, -3: 0.5})
        theta = 0.37
        assert abs(f.conj()(theta) - np.conj(f(theta))) < 1e-12

    def test_exact_rational_angle_evaluation(self, circle):
        e1 = Observable.character(circle, 1)
        assert e1(Fraction(1, 4)) == pytest.approx(1j)

    def test_circle_carriers_of_one_degree_are_one_carrier(self):
        # a config's "space.grid" is not read: the grid derives from the degree
        loaded = space_from_json({"kind": "circle", "degree": 8, "grid": 64})
        assert loaded == CircleSpace(degree=8) and loaded.grid == 64
        prod = Observable.character(CircleSpace(degree=8), 3) * Observable.character(loaded, -5)
        assert prod.fourier == {-2: 1.0}

    def test_circle_points_are_exact_angles(self):
        assert CircleSpace.point(Fraction(5, 4)) == CircleSpace.point("1/4") == Fraction(1, 4)
        assert CircleSpace.point(np.int64(3)) == CircleSpace.point(2.0) == 0
        for bad in (0.25, True, [1, 4], "quarter"):
            with pytest.raises(ValueError):
                CircleSpace.point(bad)

    @given(
        coeffs=st.dictionaries(
            st.integers(-4, 4),
            st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
            max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_convolution_matches_pointwise_product(self, coeffs):
        other = {0: 1.0, 2: -0.5j}
        prod = convolve_coeffs(coeffs, other)
        z = cmath.exp(2j * cmath.pi * 0.123)
        lhs = sum(c * z**n for n, c in prod.items())
        a = sum(c * z**n for n, c in coeffs.items())
        b = sum(c * z**n for n, c in other.items())
        assert abs(lhs - a * b) < 1e-9


class TestMeasure:
    def test_weights_must_normalize(self):
        sp = FiniteSpace(("a", "b"))
        with pytest.raises(NormalizationError):
            Measure.from_weights(sp, [0.6, 0.5])

    def test_negative_weight_is_refused(self):
        with pytest.raises(NormalizationError, match="nonnegative"):
            Measure.from_weights(FiniteSpace(("a", "b")), [1.5, -0.5])

    @pytest.mark.parametrize("weights", [[1.0], [0.5, 0.25, 0.25], [[0.5, 0.5]]])
    def test_weight_vector_of_another_length_is_refused(self, weights):
        with pytest.raises(ValueError, match="length must match"):
            Measure.from_weights(FiniteSpace(("a", "b")), weights)

    def test_haar_integrates_to_constant_coefficient(self, circle):
        mu = Measure.haar_measure(circle)
        f = Observable.from_fourier(circle, {0: 3.0, 2: 1.0, -5: 2j})
        assert integrate(mu, f) == pytest.approx(3.0)

    def test_inner_product_is_hermitian(self, circle):
        mu = Measure.haar_measure(circle)
        f = Observable.from_fourier(circle, {1: 1.0, 0: 2j})
        g = Observable.from_fourier(circle, {1: -1.0, 3: 1.0})
        assert inner_product(mu, f, g) == pytest.approx(np.conj(inner_product(mu, g, f)))


class TestEndomorphismComposition:
    def test_circle_composition_doubles_indices(self, circle):
        f = Observable.from_fourier(circle, {1: 2.0, -3: 1.0})
        g = compose_with_endo(f)
        assert g.fourier == {2: 2.0, -6: 1.0}

    def test_composition_agrees_pointwise(self, circle):
        f = Observable.from_fourier(circle, {1: 1.0, 2: -1j})
        t = 0.3
        assert abs(compose_with_endo(f)(t) - f((2 * t) % 1)) < 1e-12

    def test_fiber_average_keeps_even_coefficients(self, circle):
        f = Observable.from_fourier(circle, {2: 1.0, 3: 5.0, -4: 2.0})
        assert fiber_average(f).fourier == {1: 1.0, -2: 2.0}

    def test_fiber_average_pointwise(self, circle):
        f = Observable.from_fourier(circle, {1: 1.0, 2: 0.5, -2: 1j})
        t = Fraction(1, 3)
        u0, u1 = CircleSpace.preimages(t)
        assert abs(fiber_average(f)(t) - (f(u0) + f(u1)) / 2) < 1e-12

    def test_preimages_are_elementwise(self):
        angles = [Fraction(0), Fraction(1, 3), Fraction(5, 8)]
        pre = CircleSpace.preimages(np.array(angles, dtype=object))
        assert pre.shape == (3, 2)
        assert pre.tolist() == [CircleSpace.preimages(t).tolist() for t in angles]
        assert all((2 * u) % 1 == t for t, pair in zip(angles, pre) for u in pair)

    def test_haar_is_strongly_invariant(self, circle):
        mu = Measure.haar_measure(circle)
        assert strong_invariance_check(mu) == 0.0

    def test_point_mass_is_not_strongly_invariant(self):
        sp = FiniteSpace(("a", "b"), endo=(1, 0))
        mu = Measure.point_mass(sp, 0)
        # fiber average swaps values, so the indicator battery detects it
        assert strong_invariance_check(mu) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the dense circle layout against the dict-loop oracle

EPS = np.finfo(float).eps
# components bounded away from zero (no underflow) or small integers (exact zeros and cancellations)
PART = st.one_of(st.integers(-3, 3).map(float), st.floats(0.25, 4.0), st.floats(-4.0, -0.25))
COEFF = st.builds(complex, PART, PART)
INT_COEFF = st.integers(-2, 2).map(complex)


def coeff_maps(deg, values=COEFF):
    return st.dictionaries(st.integers(-deg, deg), values, max_size=2 * deg + 1)


def nonzero(d):
    return {n: complex(c) for n, c in d.items() if c != 0}


def ruelle_oracle(w, b):
    return {n // 2: 2 * c for n, c in convolve_coeffs(w, b).items() if n % 2 == 0}


def adjoint_oracle(w, b):
    return convolve_coeffs({n: 2 * c for n, c in w.items()}, {2 * n: c for n, c in b.items()})


# unital, nonnegative weights with dyadic coefficients, so the oracle is exact on integer inputs
DYADIC_WEIGHTS = [
    {0: 0.5, 1: 0.25, -1: 0.25},
    {0: 0.5, 3: 0.25, -3: 0.25},
    {0: 0.5, 1: 0.125, -1: 0.125, 3: 0.125, -3: 0.125},
    {0: 0.5, 5: 0.25, -5: 0.25},
    {0: 0.5, 1: 0.125, -1: 0.125, 5: 0.125, -5: 0.125},
]


class TestDenseLayout:
    @given(a=coeff_maps(8, COEFF | INT_COEFF), b=coeff_maps(8, COEFF | INT_COEFF))
    @settings(max_examples=200, deadline=None)
    def test_difference_is_the_sum_with_the_negation_bit_for_bit(self, a, b):
        sp = CircleSpace(degree=8)
        f, g = Observable.from_fourier(sp, a), Observable.from_fourier(sp, b)
        for x, y in ((f, g), (g, f), (f, f)):
            got, want = x - y, x + (-1.0) * y
            assert (got.offset, got.coeffs.tobytes()) == (want.offset, want.coeffs.tobytes())
        assert (f - f).coeffs.size == 0 and (f - f).offset == 0  # the zero function

    @given(st.lists(st.floats(-1e300, 1e300), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_finite_difference_is_the_sum_with_the_negation_bit_for_bit(self, vals):
        sp = FiniteSpace(("a", "b", "c"))
        f, g = Observable.from_values(sp, vals[:3]), Observable.from_values(sp, vals[3:])
        for x, y in ((f, g), (g, f), (f, f)):
            assert (x - y).values.tobytes() == (x + (-1.0) * y).values.tobytes()

    @given(a=coeff_maps(12), b=coeff_maps(12))
    @settings(max_examples=200, deadline=None)
    def test_product_agrees_with_the_dict_loop_to_the_summation_order_bound(self, a, b):
        sp = CircleSpace(degree=24)
        got = (Observable.from_fourier(sp, a) * Observable.from_fourier(sp, b)).fourier
        want = convolve_coeffs(a, b)
        mag = convolve_coeffs({n: abs(c) for n, c in a.items()}, {n: abs(c) for n, c in b.items()})
        # each side is within gamma_(m+2) sum |a_n b_(k-n)| of the exact value, m terms per entry
        m = min(len(a), len(b))
        for k in set(got) | set(want):
            assert abs(got.get(k, 0) - want.get(k, 0)) <= 2 * (m + 2) * EPS * mag.get(k, 0)

    @given(a=coeff_maps(8), b=coeff_maps(8), s=PART)
    @settings(max_examples=200, deadline=None)
    def test_index_arithmetic_is_exact(self, a, b, s):
        sp = CircleSpace(degree=16)
        f, g, fa = Observable.from_fourier(sp, a), Observable.from_fourier(sp, b), nonzero(a)
        assert compose_with_endo(f).fourier == {2 * n: c for n, c in fa.items()}
        assert fiber_average(f).fourier == {n // 2: c for n, c in fa.items() if n % 2 == 0}
        assert f.conj().fourier == {-n: c.conjugate() for n, c in fa.items()}
        total = {n: a.get(n, 0) + b.get(n, 0) for n in set(a) | set(b)}
        assert (f + g).fourier == nonzero(total)
        assert (f * s).fourier == (s * f).fourier == nonzero({n: c * s for n, c in fa.items()})
        assert integrate(Measure.haar_measure(sp), f) == fa.get(0, 0.0)

    @given(a=coeff_maps(8), z=st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_complex_scalar_multiple_is_one_product_per_coefficient(self, a, z):
        sp = CircleSpace(degree=8)
        got = (Observable.from_fourier(sp, a) * z).fourier
        for n, c in nonzero(a).items():  # one complex product: a fused multiply-add may move the last bit
            assert abs(got.get(n, 0) - c * z) <= 4 * EPS * abs(c) * abs(z)

    @given(a=coeff_maps(10))
    @settings(max_examples=100, deadline=None)
    def test_fourier_round_trips_through_from_fourier(self, a):
        sp = CircleSpace(degree=10)
        f = Observable.from_fourier(sp, a)
        assert f.fourier == nonzero(a)
        assert all(type(n) is int and type(c) is complex for n, c in f.fourier.items())
        g = Observable.from_fourier(sp, f.fourier)
        assert g.offset == f.offset and np.array_equal(g.coeffs, f.coeffs)
        if f.coeffs.size:
            assert f.coeffs[0] != 0 and f.coeffs[-1] != 0
        else:
            assert f.offset == 0 and f.degree == 0

    @given(
        d=st.integers(1, 6),
        a=coeff_maps(6, INT_COEFF),
        b=coeff_maps(6, INT_COEFF),
        w=st.sampled_from(DYADIC_WEIGHTS),
    )
    @settings(max_examples=300, deadline=None)
    def test_degree_overflow_iff_a_nonzero_coefficient_exceeds_the_degree(self, d, a, b, w):
        sp = CircleSpace(degree=d)
        a = {n: c for n, c in a.items() if abs(n) <= d}
        b = {n: c for n, c in b.items() if abs(n) <= d}
        f, g = Observable.from_fourier(sp, a), Observable.from_fourier(sp, b)
        R = CircleRuelleOperator(sp, w)
        cases = [
            (lambda: f * g, convolve_coeffs(a, b)),
            (lambda: R.apply(g), ruelle_oracle(w, b)),
            (lambda: adjoint_apply(R, Measure.haar_measure(sp), g), adjoint_oracle(w, b)),
        ]
        for run, want in cases:
            want = nonzero(want)  # integer inputs and dyadic weights: the oracle is exact
            if max((abs(n) for n in want), default=0) > d:
                with pytest.raises(DegreeOverflowError):
                    run()
            else:
                assert run().fourier == want

    def test_characters_under_apply_are_exact(self):
        sp = CircleSpace(degree=40)
        R = ruelle_from_filter(sp, daubechies4().m0_coeffs())
        for n in range(-33, 34):
            # each output coefficient is one product 2 W_k
            assert R.apply(Observable.character(sp, n)).fourier == nonzero(ruelle_oracle(R.weight, {n: 1.0}))

    def test_zero_ends_beyond_the_degree_do_not_overflow(self):
        sp = CircleSpace(degree=2)
        # W * phi spans -6..6; its even entries at +-6 and +-4 are exact zeros
        R = CircleRuelleOperator(sp, {0: 0.5, 5: 0.25, -5: 0.25})
        out = R.apply(Observable.from_fourier(sp, {-2: -1.0, 0: -1.0, 2: -1.0}))
        assert out.fourier == {-1: -1.0, 0: -1.0, 1: -1.0}
        assert Observable.from_coeffs(sp, np.array([0, 1, 0, 0, 0]), -2).fourier == {-1: 1.0}
        assert Observable.from_fourier(sp, {3: 0.0, -1: 2.0}).fourier == {-1: 2.0}
        with pytest.raises(DegreeOverflowError):
            Observable.from_coeffs(sp, np.array([0, 1, 0, 1]), 0)
        # the algebra's own outputs are trimmed too: 1e-200 squared underflows to a zero end
        small = Observable.from_coeffs(sp, [1e-200, 1])
        square = small * small
        assert square.offset == 1 and square.coeffs.tolist() == [2e-200, 1]
        with pytest.raises(DegreeOverflowError):
            compose_with_endo(Observable.character(sp, sp.degree // 2 + 1))

    @settings(max_examples=80, deadline=None)
    @given(
        coeffs=st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False), min_size=1,
                        max_size=9),
        offset=st.integers(-8, 0),
        t=st.integers(1, 2**40).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q))),
    )
    def test_a_point_evaluates_to_its_bits_in_an_array(self, coeffs, offset, t):
        phi = Observable.from_coeffs(CircleSpace(degree=16), coeffs, offset)
        value = phi(t)
        assert np.ndim(value) == 0 and value == phi(np.array([t]))[0]

    def test_evaluation_is_horner_over_the_coefficients(self):
        sp = CircleSpace(degree=300)
        rng = np.random.default_rng(5)
        a = {n: complex(*rng.standard_normal(2)) for n in range(-300, 301, 7)}
        f = Observable.from_fourier(sp, a)
        theta = np.arange(64) / 64
        direct = sum(c * np.exp(2j * np.pi * n * theta) for n, c in a.items())
        l1 = sum(abs(c) for c in a.values())
        assert np.max(np.abs(f(theta) - direct)) <= 1e-12 * l1
        assert abs(f(Fraction(3, 64)) - direct[3]) <= 1e-12 * l1
        assert abs(f(complex(np.exp(2j * np.pi * 3 / 64))) - direct[3]) <= 1e-12 * l1


def loop_horner(coeffs, offset, z):
    """Reference: Horner's rule one coefficient at a time, the evaluator up to HORNER_SPLIT coefficients."""
    z = np.asarray(z)
    pts = np.atleast_1d(z)
    acc = 0j
    for c in reversed(coeffs.tolist()):
        acc = acc * pts + c
    return (acc * pts**offset).reshape(z.shape)[()]


def exact_angle_sum(coeffs, offset, p, q) -> complex:
    """Oracle at e^(2 pi i p/q): term j at the exact angle ((offset + j) p mod q) / q, real and imaginary
    parts each summed by math.fsum, so its own error is a few eps per term."""
    theta = 2 * np.pi * (((offset + np.arange(coeffs.size)) * p) % q / q)
    terms = coeffs * (np.cos(theta) + 1j * np.sin(theta))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def normal_coeffs(n, seed):
    return np.random.default_rng(seed).standard_normal((n, 2)).view(complex)[:, 0]


ANGLES = st.integers(1, 2**20).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))


def unit_point(t: Fraction) -> complex:
    """e^(2 pi i t) to about eps / 2: the quarter turns of t are taken exactly, the rest is an angle of at
    most pi / 4."""
    k = round(4 * t)
    return cmath.exp(2j * math.pi * float(t - Fraction(k, 4))) * 1j ** (k % 4)


def on_circle(angles):
    return np.exp(2j * np.pi * np.array([float(t) for t in angles]))


class TestSplitHorner:
    """``horner`` is the one-coefficient loop up to HORNER_SPLIT coefficients and split Horner past it."""

    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
                           max_size=HORNER_SPLIT),
           offset=st.integers(-80, 16), angles=st.lists(ANGLES, min_size=1, max_size=6))
    def test_up_to_the_split_it_is_the_loop_bit_for_bit(self, coeffs, offset, angles):
        c, z = np.array(coeffs, dtype=complex), on_circle(angles)
        assert horner(c, offset, z).tobytes() == loop_horner(c, offset, z).tobytes()
        assert np.asarray(horner(c, offset, z[0])).tobytes() == np.asarray(loop_horner(c, offset, z[0])).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(HORNER_SPLIT + 1, 4097), data=st.data(), seed=st.integers(0, 2**32 - 1),
           angles=st.lists(ANGLES, min_size=1, max_size=4))
    def test_past_the_split_it_is_within_eps_n_l1_of_the_exact_angles(self, n, data, seed, angles):
        """Indices within [-n, n), as on a carrier whose degree bound admits n coefficients, at points
        accurate to about eps / 2, so that the point's own error, times an index, stays below the bound."""
        offset = data.draw(st.integers(-n, 0), label="offset")
        c = normal_coeffs(n, seed)
        bound = np.finfo(float).eps * n * np.abs(c).sum()
        values = horner(c, offset, np.array([unit_point(t) for t in angles]))
        for t, value in zip(angles, values):
            assert abs(value - exact_angle_sum(c, offset, t.numerator, t.denominator)) <= bound

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(HORNER_SPLIT + 1, 700), offset=st.integers(-700, 0), seed=st.integers(0, 2**32 - 1),
           size=st.integers(1, 9000), picks=st.lists(st.integers(0, 8999), min_size=1, max_size=5))
    def test_past_the_split_a_point_evaluates_to_its_bits_in_an_array(self, n, offset, seed, size, picks):
        """At any position of an array that spans several slices, and as a scalar or a one-entry array."""
        c = normal_coeffs(n, seed)
        z = np.exp(2j * np.pi * np.random.default_rng(seed).random(size))
        values = horner(c, offset, z)
        for i in (k % size for k in picks):
            assert horner(c, offset, z[i]) == values[i] == horner(c, offset, z[i : i + 1])[0]
            assert horner(c, offset, z[i : i + 2])[0] == values[i]

    def test_memory_stays_within_twice_the_loop(self):
        c, z = normal_coeffs(2049, 1), np.exp(2j * np.pi * np.random.default_rng(2).random(2**16))
        peaks = []
        for evaluate in (loop_horner, horner):
            tracemalloc.start()
            try:
                evaluate(c, -1024, z)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_a_circle_mean_of_a_long_word_is_the_per_path_evaluation_bit_for_bit(self):
        """Each coordinate once per distinct numerator, gathered back, against each path's own point."""
        space = CircleSpace(degree=64)
        R = ruelle_from_filter(space, daubechies4().m0_coeffs())
        long = Observable.from_coeffs(space, normal_coeffs(81, 3), -40)  # 81 coefficients, past the split
        word = CylinderFunctional((long, Observable.character(space, 1) + long.conj(), long))
        ens = sample_paths(R, Fraction(1, 3), 7, 600, 5)
        vals = np.ones(ens.count, dtype=complex)
        for j, phi in enumerate(word.word):
            vals *= np.array([phi(t) for t in ens.samples[:, j]])
        assert ens.functional_mean(word) == mean_stderr(vals.real)


def test_worst_reads_zero_on_no_terms_and_nan_on_a_nan_term():
    assert worst([]) == worst(np.zeros(0)) == 0.0
    assert worst([1.0, 3.0, 2.0]) == worst(np.array([1.0, 3.0, 2.0])) == 3.0
    assert np.isnan(worst([1.0, float("nan"), 2.0])) and np.isnan(worst([float("nan"), 1.0]))
    with pytest.raises(TypeError):  # a generator is refused, not read as one object
        worst(x for x in [1.0])
