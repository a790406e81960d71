"""Closed-form verdicts against the sweeps and dict loops they replace.

Each oracle below is the code its closed form replaced, kept as it was apart
from its name (below the span of W the character sweep now reaches the span's
characters): the character and indicator sweeps over ``default_test_basis``,
the Gram matrix built from inner products of rebuilt forward dilates, and the
dict-loop Lawton map, Lawton matrix, filter autocorrelation, S0 and translate
evaluation.  Where the arithmetic is the same the comparison is ``==``; where
the summation order changes it is held to (len + 2) eps times the sum of the
absolute values of the terms.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xferlab import (
    CircleSpace,
    DegreeOverflowError,
    FiniteSpace,
    MatrixOperator,
    Measure,
    Observable,
    QMFFilter,
    cascade,
    compose_with_endo,
    correlation,
    daubechies4,
    fiber_average,
    haar_filter,
    hitting,
    hitting_verification,
    inner_product,
    integrate,
    path_network,
    ruelle_from_filter,
    stationarity_residual,
    strong_invariance_check,
    stretched_haar,
    uniform_circle_operator,
)
from xferlab.transferop import CircleRuelleOperator
from xferlab.wavelet import _lawton_matrix, _span_gram, eval_translates, scaled_coeffs

EPS = np.finfo(float).eps


def lattice_filter(angles) -> QMFFilter:
    """An orthogonal (QMF) filter of length 2 (len(angles) + 1) from the paraunitary lattice.

    The polyphase pair starts at (cos t_0, sin t_0); each further angle applies
    diag(1, z) and then a rotation.  A last angle makes the angles sum to pi / 4,
    so the taps sum to sqrt(2).
    """
    angles = list(angles) + [math.pi / 4 - sum(angles)]
    a, b = np.array([math.cos(angles[0])]), np.array([math.sin(angles[0])])
    for th in angles[1:]:
        zb = np.concatenate([[0.0], b])
        a = np.append(a, 0.0)
        a, b = math.cos(th) * a - math.sin(th) * zb, math.sin(th) * a + math.cos(th) * zb
    taps = np.empty(2 * a.size)
    taps[0::2], taps[1::2] = a, b
    return QMFFilter.make(taps)


LATTICE = lattice_filter([0.4, -1.3, 2.2])
COMPLEX_TAPS = QMFFilter.make([0.5, 0.5j, -0.25 + 0.5j, 0.3, 0.0, -0.1j], -2, require_normalization=False)
FILTERS = {
    "haar": haar_filter(),
    "d4": daubechies4(),
    "lattice": LATTICE,
    "stretched2": stretched_haar(2),
    "stretched3": stretched_haar(3),
    "complex": COMPLEX_TAPS,
}


# ---------------------------------------------------------------------------
# stationarity and strong invariance


def character_sweep(R: CircleRuelleOperator, mu: Measure) -> float:
    """Oracle: max over the characters of ``default_test_basis`` of |int R(phi) dmu - int phi dmu|.

    Below the span s of W, R of an extreme character can leave the degree bound
    (DegreeOverflowError), and characters up to s can still see W; so the sweep then
    applies the same weight at degree s to every character of that degree's basis.
    """
    span = max(abs(n) for n in R.weight)
    if span > R.space.degree:
        R = CircleRuelleOperator(CircleSpace(degree=span), R.weight)
        mu = Measure.haar_measure(R.space)
    res = 0.0
    for phi in R.space.default_test_basis():
        res = max(res, abs(mu.integrate(R.apply(phi)) - mu.integrate(phi)))
    return res


def basis_sweep(mu: Measure) -> float:
    """Oracle: max over ``default_test_basis`` of |int phi dmu - int fiber_average(phi) dmu|."""
    res = 0.0
    for phi in mu.space.default_test_basis():
        res = max(res, abs(integrate(mu, phi) - integrate(mu, fiber_average(phi))))
    return res


@settings(max_examples=60, deadline=None)
@given(angles=st.lists(st.floats(-math.pi, math.pi), max_size=4), degree=st.integers(1, 64))
@example(angles=[0.3, -1.1, 0.7, 2.0], degree=3)  # below the span 9 of W
@example(angles=[], degree=1)  # Haar: span 1
def test_circle_closed_forms_are_the_character_sweeps(angles, degree):
    space = CircleSpace(degree=degree)
    mu = Measure.haar_measure(space)
    qmf = ruelle_from_filter(space, lattice_filter(angles).m0_coeffs())
    for R in (qmf, uniform_circle_operator(space)):
        assert stationarity_residual(R, mu) == character_sweep(R, mu)
    assert strong_invariance_check(mu) == basis_sweep(mu) == 0.0


def test_circle_stationarity_reads_w_beyond_the_degree_bound():
    space = CircleSpace(degree=1)
    R = ruelle_from_filter(space, daubechies4().m0_coeffs())
    with pytest.raises(DegreeOverflowError):  # the sweep could not run here
        R.apply(Observable.character(space, 1))
    mu = Measure.haar_measure(space)
    assert stationarity_residual(R, mu) == character_sweep(R, mu) == 0.5624999999999998


def test_circle_stationarity_sees_a_weight_whose_non_constant_part_lies_beyond_the_degree():
    space = CircleSpace(degree=2)
    R = CircleRuelleOperator(space, {0: 0.5, 3: 0.25, -3: 0.25})
    mu = Measure.haar_measure(space)
    with pytest.raises(ValueError, match="Haar is not invariant"):
        R.invariant_measure()
    assert stationarity_residual(R, mu) == character_sweep(R, mu) == 0.5
    one = Observable.constant(space, 1.0)
    with pytest.warns(UserWarning, match="not R-stationary"):
        correlation(mu, R, one, one, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))), st.integers(0, 2**32 - 1))
def test_finite_strong_invariance_is_the_indicator_sweep(perm, seed):
    space = FiniteSpace(tuple(range(len(perm))), endo=perm)
    w = np.random.default_rng(seed).uniform(0.0, 1.0, len(perm))
    measures = (Measure.from_weights(space, w / w.sum()), Measure.uniform(space), Measure.point_mass(space, 0))
    for mu in measures:
        assert strong_invariance_check(mu) == basis_sweep(mu)


# ---------------------------------------------------------------------------
# the span Gram of the wavelet representation


def forward_dilates(m: Observable, g: Observable, p: int) -> Observable:
    """Oracle: U^p (g o pi_1) = (m (m o r) ... (m o r^{p-1}) (g o r^p)) o pi_1, rebuilt for each p."""
    out = Observable.constant(m.space, 1.0)
    cur = m
    for _ in range(p):
        out = out * cur
        cur = compose_with_endo(cur)
    comp = g
    for _ in range(p):
        comp = compose_with_endo(comp)
    return out * comp


def gram_by_inner_products(m, chars, levels, mu) -> np.ndarray:
    """Oracle: the Gram matrix entry by entry, <U^p pi(g) 1, pi(f) 1> for j >= l, mirrored above."""
    family = [(j, c) for j in range(levels + 1) for c in chars]
    gram = np.zeros((len(family), len(family)), dtype=complex)
    for a, (j, f) in enumerate(family):
        for b, (l, g) in enumerate(family):
            if j >= l:
                gram[a, b] = inner_product(mu, forward_dilates(m, g, j - l), f)
    level = np.array([j for j, _ in family])
    upper = level[:, None] < level[None, :]
    gram[upper] = gram.T.conj()[upper]
    return gram


@pytest.mark.parametrize("name", ["haar", "d4", "lattice"])
def test_span_gram_is_the_inner_product_gram_bit_for_bit(name):
    space = CircleSpace(degree=256)
    m = FILTERS[name].m0_observable(space)
    chars = [Observable.character(space, n) for n in range(-2, 3)]
    want = gram_by_inner_products(m, chars, 4, Measure.haar_measure(space))
    assert _span_gram(m, 2, 4).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Lawton's autocorrelation map, the filter autocorrelation and S0


def autocorrelation_by_lag(h: QMFFilter, lag: int) -> complex:
    """Oracle: sum_k h_k conj(h_{k - lag}), one lag at a time."""
    c = h.coeffs
    out = 0.0 + 0.0j
    for i in range(c.size):
        j = i - lag
        if 0 <= j < c.size:
            out += c[i] * np.conj(c[j])
    return complex(out)


def lawton_pairs(h: QMFFilter):
    idx = np.arange(h.length)
    return [
        (int(m - n), h.coeffs[n] * np.conj(h.coeffs[m]))
        for n in idx
        for m in idx
        if h.coeffs[n] != 0 and h.coeffs[m] != 0
    ]


def lawton_apply_by_pairs(h: QMFFilter, a) -> dict:
    """Oracle: (T a)(k) = sum h_n conj(h_m) a(2k + m - n), summed pair by pair."""
    span = h.length - 1
    pairs = lawton_pairs(h)
    out = {}
    for k in range(-span, span + 1):
        s = 0.0j
        for d, c in pairs:
            s += c * a.get(2 * k + d, 0.0j)
        out[k] = s
    return out


def lawton_matrix_by_pairs(h: QMFFilter) -> np.ndarray:
    """Oracle: the matrix of T, accumulated pair by pair."""
    span = h.length - 1
    lags = list(range(-span, span + 1))
    pos = {k: i for i, k in enumerate(lags)}
    t = np.zeros((len(lags), len(lags)), dtype=complex)
    for d, c in lawton_pairs(h):
        for k in lags:
            j = 2 * k + d
            if j in pos:
                t[pos[k], pos[j]] += c
    return t


def scaled_coeffs_by_loop(h: QMFFilter, xi) -> dict:
    """Oracle: the coefficients of m0(z) xi(z^2), tap by tap."""
    out: dict[int, complex] = {}
    for l, c in enumerate(h.coeffs):
        if c == 0:
            continue
        a = h.offset + l
        for n, x in xi.items():
            out[a + 2 * n] = out.get(a + 2 * n, 0) + c * x
    return {k: v for k, v in out.items() if v != 0}


def tol(h: QMFFilter, scale: float = 1.0) -> float:
    return (h.length + 2) * EPS * float(np.sum(np.abs(h.coeffs) ** 2)) * scale


def sequences(span: int):
    """A delta, a dense complex sequence on the window, and one reaching three lags past it."""
    rng = np.random.default_rng(span)
    wide = range(-span - 3, span + 4)
    return [
        {0: 1.0 + 0j},
        {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(-span, span + 1)},
        {k: complex(rng.standard_normal(), rng.standard_normal()) for k in wide},
    ]


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_autocorrelation_is_the_per_lag_loop(name):
    h = FILTERS[name]
    acf = h.autocorrelation()
    assert acf.size == 2 * h.length - 1
    for lag in range(1 - h.length, h.length):
        assert abs(acf[lag + h.length - 1] - autocorrelation_by_lag(h, lag)) <= tol(h)


@pytest.mark.parametrize("name", ["haar", "d4", "stretched3", "lattice"])  # the unital ones: R needs R1 = 1
def test_autocorrelation_is_twice_the_ruelle_weight_bit_for_bit(name):
    # one loop feeds W, the QMF identity and the Lawton matrix, so they agree to the last bit at every lag
    h = FILTERS[name]
    weight = ruelle_from_filter(CircleSpace(degree=32), h.m0_coeffs()).weight
    acf = h.autocorrelation()
    for lag in range(1 - h.length, h.length):
        assert acf[lag + h.length - 1] == 2 * weight.get(lag, 0)


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_lawton_map_and_matrix_are_the_pair_loops(name):
    h = FILTERS[name]
    span = h.length - 1
    t = _lawton_matrix(h)
    assert np.max(np.abs(t - lawton_matrix_by_pairs(h))) <= tol(h)
    for a in sequences(span):
        if all(abs(k) <= span for k in a):  # T is the map on sequences inside the window
            want = lawton_apply_by_pairs(h, a)
            assert list(want) == list(range(-span, span + 1))
            window = np.array([a.get(k, 0) for k in range(-span, span + 1)])
            scale = sum(abs(v) for v in a.values())
            assert np.max(np.abs(t @ window - np.array(list(want.values())))) <= tol(h, scale)


@pytest.mark.parametrize("name", sorted(FILTERS))
def test_s0_is_the_tap_loop(name):
    h = FILTERS[name]
    for xi in sequences(2) + [{}]:
        got, want = scaled_coeffs(h, xi), scaled_coeffs_by_loop(h, xi)
        scale = float(np.sum(np.abs(h.coeffs))) * sum(abs(v) for v in xi.values())
        for k in set(got) | set(want):
            assert abs(got.get(k, 0) - want.get(k, 0)) <= (h.length + 2) * EPS * scale


def test_translates_are_the_pointwise_loop():
    sf = cascade(daubechies4(), 8, resolution=6)
    xi = {-1: 0.3, 0: 1.0, 2: 1.0 + 1j}
    xs = -3 + 2 * sf.step * np.arange(400)
    want = np.zeros(xs.size, dtype=complex)
    for n, c in xi.items():
        for i, x in enumerate(xs):
            j = round((x - n - sf.offset) / sf.step)
            want[i] += c * (sf.values[j] if 0 <= j < sf.values.size else 0.0)
    assert np.array_equal(eval_translates(sf, xi, xs), want)


# ---------------------------------------------------------------------------
# Monte Carlo means and standard errors


def test_a_single_absorbing_walk_has_standard_error_zero():
    space = FiniteSpace(("0", "1", "2"))
    R = MatrixOperator(space, [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    h = Observable.from_values(space, [0.0, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = hitting(R, h.values, start=1, count=1, seed=5)
        hit = hitting_verification(path_network([1.0, 1.0]), {0: 0.0, 2: 1.0}, start=1, count=1, seed=5)
    assert rep.stderr == hit.stderr == 0.0
    assert rep.estimate == hit.estimate in (0.0, 1.0)
