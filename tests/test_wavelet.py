"""Filters, cascade approximation, and the wavelet representation."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xferlab import (
    CircleSpace,
    ConvergenceError,
    NormalizationError,
    QMFFilter,
    cascade,
    daubechies4,
    haar_filter,
    intertwining_check,
    orthogonality_defect,
    qmf_check,
    representation_check,
    stretched_haar,
    translate_orthogonality,
)
from xferlab.transferop import CERTIFICATE_C
from xferlab.statespace import coeffs_at
from xferlab.wavelet import SQRT2, _cascade_step, _lawton_matrix, lawton_multiplicity, scaled_coeffs


def spectral_factor_oracle():
    """Independent derivation of the 4-tap filter.

    The halfband product |m0(theta)|^2 = (cos^2 pi theta)^2 * (2 - cos 2 pi theta)
    is factored by solving for the root of the degree-1 factor directly:
    2 - cos w = |a - e^{iw}|^2 / (2a) with a = 2 + sqrt(3).
    """
    a = 2 + math.sqrt(3)
    # m0(z) = (1 + z)^2 (a - z) / (4 sqrt(a)), normalized so m0(1) = sqrt(2)
    poly = np.polynomial.polynomial.polymul([1, 2, 1], [a, -1])
    return np.asarray(poly, dtype=float) / (4 * math.sqrt(a))


# draw 0 of bench/circle.py's lattice_taps(default_rng(0), 2): orthonormal, with an L2-convergent cascade
# whose sup-norm grid residual grows at resolution 10
LATTICE_TAPS = [0.6501756245823669, -0.04895778975246476, 0.056931156604180556, 0.7560645709390122]


def fraction_rank(rows) -> int:
    """Oracle: the rank of a matrix of Fractions by exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def stretch_count_by_rank(k: int) -> int:
    """Oracle: (2k + 1) - rank(T - I) over Fractions for h_0 = h_k = 1/sqrt(2): A_0 = 1, A_{+-k} = 1/2."""
    a = {0: Fraction(1), k: Fraction(1, 2), -k: Fraction(1, 2)}
    lags = range(-k, k + 1)
    return 2 * k + 1 - fraction_rank([[a.get(2 * i - j, 0) - (i == j) for j in lags] for i in lags])


def stretch_count_by_cycles(k: int) -> int:
    """Oracle: 1 + the number of cycles of x -> 2x on Z_k minus 0 (Cohen's cycle condition, k odd)."""
    seen, cycles = set(), 0
    for x in range(1, k):
        if x not in seen:
            cycles += 1
            while x not in seen:
                seen.add(x)
                x = 2 * x % k
    return 1 + cycles


class TestFilters:
    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError):
            QMFFilter.make([1.0, 1.0])

    def test_normalization_escape_hatch(self):
        h = QMFFilter.make([1.0], require_normalization=False)
        assert h.coeff_sum() == 1.0

    def test_d4_matches_spectral_factorization_oracle(self):
        oracle = spectral_factor_oracle()
        assert np.max(np.abs(daubechies4().coeffs - oracle)) < 1e-12

    def test_haar_and_d4_are_qmf(self):
        for h in (haar_filter(), daubechies4()):
            rep = qmf_check(h)
            assert rep.coeff_residual < 1e-12
            assert rep.grid_residual < 1e-9
            assert rep.normalization_residual < 1e-12

    def test_coefficient_and_grid_forms_agree(self):
        # the two faces of the same identity must fail together
        rep = qmf_check(stretched_haar(2))
        assert rep.coeff_residual > 0.4
        assert rep.grid_residual > 0.9

    def test_even_stretch_breaks_qmf_odd_stretch_keeps_it(self):
        assert qmf_check(stretched_haar(2)).coeff_residual > 0.4
        assert qmf_check(stretched_haar(3)).coeff_residual < 1e-12

    def test_constant_filter_needs_the_normalization_waiver(self):
        h = QMFFilter.make([1.0], require_normalization=False)
        rep = qmf_check(h)
        assert rep.coeff_residual < 1e-12  # QMF holds: (1/2)(1 + 1) = 1
        assert rep.normalization_residual > 0.4  # but sum h = 1 != sqrt(2)


def correlations_by_shifts(sf) -> dict[int, complex]:
    """Oracle: a(k) as the samples times the conjugate samples k unit intervals earlier, one lag at a time."""
    g, v = 2**sf.resolution, sf.values
    n = v.size // g

    def lead(k):  # the samples a lag of k unit intervals skips at the start
        return max(k, 0) * g

    return {k: complex(np.sum(v[lead(k) : v.size - lead(-k)] * np.conj(v[lead(-k) : v.size - lead(k)])) * sf.step)
            for k in range(1 - n, n)}


TAP = 0.7071067811865476
# SHA-256 over (J, n) in {1, 6, 11} x {0, 1, 14} of cascade(h, n, J).values and its refinement_residuals:
# filter, the QMF waiver, digest
PINNED_CASCADES = {
    "haar": (haar_filter(), False, "c709984117b1246f95285e75a10b10d8a2e0188727e3754bbfe159fc074af749"),
    "d4": (daubechies4(), False, "11880c8302f213f4a9ca6e0bbf835f5d2c0a8f40bb18f2c563c8d9a542c56bb5"),
    "stretched-haar-2": (stretched_haar(2), True, "68359825d7894a165700dc9f9ee8001a8e68ea81d91dcd02143d1a5da6863ddb"),
    "complex-unnormalised": (QMFFilter.make([1j * TAP, TAP], require_normalization=False), False,
                             "8e6f0397f5788466627eb608d9bc47ce5eb80a29db7800ae4d20493c5d0f41ed"),
    "interior-zero-tap": (QMFFilter.make([0.5, 0.0, 0.6, SQRT2 - 1.1]), True,
                          "f87035754c3a7c69a64efbdfc2438201cd848b946ee6726dc7a0dfcdf5b2e015"),
    # complex correlations over three unit intervals: a(-k) = conj(a(k)) tells the two subdiagonals apart
    "complex-four-taps": (QMFFilter.make([0.5, 0.3j, 0.4, 0.2], require_normalization=False), True,
                          "9acb732780cd8b2b5265053170c630722d677fa435c8dea1c72aeb10c3fbc368"),
}


class TestCascade:
    @pytest.mark.parametrize("h, waive, digest", PINNED_CASCADES.values(), ids=PINNED_CASCADES.keys())
    def test_iterates_and_residuals_are_pinned(self, h, waive, digest):
        d = hashlib.sha256()
        for resolution in (1, 6, 11):
            for iterations in (0, 1, 14):
                sf = cascade(h, iterations, resolution, allow_non_qmf=waive)
                d.update(sf.values.tobytes())
                d.update(np.asarray(sf.refinement_residuals, dtype=float).tobytes())
        assert d.hexdigest() == digest

    @pytest.mark.parametrize("h, waive", [c[:2] for c in PINNED_CASCADES.values()], ids=PINNED_CASCADES.keys())
    def test_gram_correlations_match_the_shifted_products(self, h, waive):
        sf = cascade(h, 14, 6, allow_non_qmf=waive)
        got, want = translate_orthogonality(sf), correlations_by_shifts(sf)
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in got) <= 1e-14 * abs(want[0])

    def test_normalized_keeps_its_own_residuals(self):
        sf = cascade(stretched_haar(2), 3, resolution=4, allow_non_qmf=True)
        unit = sf.normalized()
        assert unit.refinement_residuals == sf.refinement_residuals
        assert unit.refinement_residuals is not sf.refinement_residuals
        assert (unit.resolution, unit.offset) == (sf.resolution, sf.offset) and unit.integral() == pytest.approx(1.0)

    def test_haar_cascade_is_exact_after_one_step(self):
        sf = cascade(haar_filter(), 3, resolution=6)
        assert np.allclose(sf.values, 1.0)
        assert sf.refinement_residuals[-1] == 0.0

    def test_integral_is_preserved(self):
        sf = cascade(daubechies4(), 12, resolution=8)
        assert sf.integral() == pytest.approx(1.0, abs=1e-10)

    def test_d4_translates_orthogonal(self):
        sf = cascade(daubechies4(), 12, resolution=10)
        a = translate_orthogonality(sf)
        assert max(abs(a[k]) for k in a if k != 0) <= 1e-4

    def test_grid_and_filter_domain_routes_agree(self):
        # the delta is Lawton's fixed point, and it is simple for D4
        sf = cascade(daubechies4(), 30, resolution=10)
        a_grid = translate_orthogonality(sf)
        for k in range(-3, 4):
            assert abs((k == 0) - a_grid.get(k, 0)) < 1e-4

    def test_stretched_haar_cascade_limit(self):
        # normalized grid fixed point is (1/2) chi_[0,2); a(1) = 1/4 by direct integration
        sf = cascade(stretched_haar(2), 12, resolution=10, allow_non_qmf=True).normalized()
        assert np.max(np.abs(sf.values - 0.5)) < 1e-12
        a = translate_orthogonality(sf)
        assert a[1] == pytest.approx(0.25, abs=1e-12)
        assert orthogonality_defect(a) > 0.2

    def test_qmf_precondition_gate(self):
        with pytest.raises(NormalizationError):
            cascade(stretched_haar(2), 5)

    def test_lawton_multiplicity_detects_orthogonality(self):
        assert lawton_multiplicity(haar_filter()) == 1
        assert lawton_multiplicity(daubechies4()) == 1
        # triple stretch satisfies QMF yet fails orthogonality: degenerate eigenvalue 1
        assert lawton_multiplicity(stretched_haar(3)) > 1

    def test_triple_stretch_true_autocorrelation_is_lawton_fixed(self):
        # weak limit is (1/3) chi_[0,3): a(k) = (3 - |k|)/9, a genuine second fixed point
        a_true = {k: (3 - abs(k)) / 9 for k in range(-2, 3)}
        window = np.array([a_true.get(k, 0) for k in range(-3, 4)])
        assert np.max(np.abs(_lawton_matrix(stretched_haar(3)) @ window - window)) < 1e-12
        assert orthogonality_defect(a_true) > 0.2


class TestLawtonCount:
    @pytest.mark.parametrize("digits", [None, 12])
    @pytest.mark.parametrize("k, count", [(1, 1), (3, 2), (5, 2), (7, 3), (9, 3), (15, 5)])
    def test_count_is_the_exact_rank_and_the_cycle_count(self, k, count, digits):
        h = stretched_haar(k)  # k = 1 is Haar
        if digits is not None:
            h = QMFFilter.make(np.round(h.coeffs.real, digits))
        assert lawton_multiplicity(h) == stretch_count_by_rank(k) == stretch_count_by_cycles(k) == count

    def test_no_clear_gap_raises(self, monkeypatch):
        h = daubechies4()
        t = _lawton_matrix(h)
        n = len(t)
        tau = CERTIFICATE_C * n * np.finfo(float).eps * np.linalg.norm(t, 2) + n * qmf_check(h).coeff_residual
        svd = np.linalg.svd

        def blurred(a, *args, **kwargs):
            s = svd(a, compute_uv=False)
            s[-1] = 10 * tau  # the smallest singular value, moved into (tau, 100 tau]
            return s

        monkeypatch.setattr(np.linalg, "svd", blurred)
        with pytest.raises(ConvergenceError, match="gap"):
            lawton_multiplicity(h)

    def test_non_qmf_filter_is_refused(self):
        with pytest.raises(NormalizationError, match="quadrature-mirror"):
            lawton_multiplicity(stretched_haar(2))



def lattice_filter(rng, pairs: int, complex_taps: bool) -> QMFFilter:
    """A random QMF filter of length 2 * pairs from the paraunitary lattice.

    The polyphase pair (a, b), with h_{2k} = a_k and h_{2k+1} = b_k, starts at (1, 0);
    each step applies a random orthogonal (or unitary) 2 x 2 matrix and then diag(1, z),
    which keeps |a|^2 + |b|^2 = 1 on the circle.  A last constant unitary maps
    (a(1), b(1)) to (1, 1) / sqrt(2), so the taps sum to sqrt(2).
    """
    a, b = np.ones(1, complex), np.zeros(1, complex)
    for _ in range(pairs - 1):
        g = rng.standard_normal((2, 2)) + (1j * rng.standard_normal((2, 2)) if complex_taps else 0)
        u = np.linalg.qr(g)[0]
        a, b = np.append(u[0, 0] * a + u[0, 1] * b, 0), np.insert(u[1, 0] * a + u[1, 1] * b, 0, 0)
    v = np.array([a.sum(), b.sum()])
    u = np.outer([1, 1], v.conj()) + np.outer([1, -1], [v[1], -v[0]])  # sqrt(2) times the unitary
    taps = np.empty(2 * a.size, complex)
    taps[0::2], taps[1::2] = (u[0, 0] * a + u[0, 1] * b) / SQRT2, (u[1, 0] * a + u[1, 1] * b) / SQRT2
    return QMFFilter.make(taps if complex_taps else taps.real)


def l2_residuals_by_lawton(h: QMFFilter, start: int, count: int) -> np.ndarray:
    """Oracle: ||phi_{n+1} - phi_n||_2^2 of the cascade from chi_[0,1), for n = start .. start + count - 1.

    a_n(k) = <phi_n, phi_n(. - k)> and c_n(k) = <phi_{n+1}, phi_n(. - k)> both advance by the
    Lawton matrix T, from a_0 = delta and c_0(k) = (h_{2k} + h_{2k+1}) / sqrt(2); the squared
    residual is a_{n+1}(0) + a_n(0) - 2 Re c_n(0).
    """
    t, n = _lawton_matrix(h), h.length
    lags = np.arange(1 - n, n)
    a = (lags == 0).astype(complex)
    c = coeffs_at(h.coeffs, 0, 2 * lags) + coeffs_at(h.coeffs, 0, 2 * lags + 1)
    p = np.linalg.matrix_power(t, start)
    a, c = p @ a, p @ c / SQRT2
    out = []
    for _ in range(count):
        a_next = t @ a
        out.append(a_next[n - 1].real + a[n - 1].real - 2 * c[n - 1].real)
        a, c = a_next, t @ c
    return np.array(out)


def l2_residuals_on_the_grid(h: QMFFilter, iterations: int, resolution: int) -> np.ndarray:
    """Squared L2 norms of the differences of successive grid iterates, which hold the cascade exactly
    while iterations <= resolution; the last iterate must be ``cascade``'s, bit for bit."""
    g = 2**resolution
    values = np.zeros((h.length - 1) * g, dtype=complex)
    values[:g] = 1.0
    out = []
    for _ in range(iterations):
        nxt = _cascade_step(h, values, g)
        out.append(np.sum(np.abs(nxt - values) ** 2) / g)
        values = nxt
    assert np.array_equal(values, cascade(h, iterations, resolution).values)
    return np.array(out)


def spectral_gap(h: QMFFilter) -> tuple[float, float]:
    """Oracle: 1 - |lambda_2| and the error bound of lambda_2, the largest |lambda| of the Lawton matrix
    once one eigenvalue nearest to 1 is set aside.

    The bound is the first-order one, n eps ||T||_2 kappa, with kappa = ||x|| ||y|| / |y^H x| the
    condition number of lambda_2 from its right and left eigenvectors (Wilkinson); the left ones are
    the rows of V^-1, so y^H x = 1.
    """
    t = _lawton_matrix(h)
    ev, v = np.linalg.eig(t)
    rest = np.delete(np.arange(len(ev)), np.argmin(np.abs(ev - 1)))
    i = rest[np.argmax(np.abs(ev[rest]))]
    kappa = np.linalg.norm(v[:, i]) * np.linalg.norm(np.linalg.inv(v)[i])
    return float(1 - abs(ev[i])), float(len(t) * np.finfo(float).eps * np.linalg.norm(t, 2) * kappa)


NAMED_FILTERS = {"haar": haar_filter(), "d4": daubechies4(), "stretched-haar-3": stretched_haar(3),
                 "lattice-draw-0": QMFFilter.make(LATTICE_TAPS)}
FILTERS = st.sampled_from(sorted(NAMED_FILTERS)).map(NAMED_FILTERS.get) | st.builds(
    lambda seed, pairs, complex_taps: lattice_filter(np.random.default_rng(seed), pairs, complex_taps),
    st.integers(0, 2**32 - 1), st.integers(2, 5), st.booleans(),
)


class TestCascadeL2ClosedForm:
    @settings(max_examples=30, deadline=None)
    @given(h=FILTERS)
    def test_closed_form_is_the_grid_l2_residual(self, h):
        # squares are compared: Haar's residual is 0, and its square root would carry sqrt(rounding)
        closed = l2_residuals_by_lawton(h, 0, 12)
        assert np.max(np.abs(closed - l2_residuals_on_the_grid(h, 12, resolution=12))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(h=FILTERS)
    # |lambda_2| = 1 - 1.6e-7: the cascade converges in L2, but its residual is still 0.85 after 10^6 steps
    @example(h=lattice_filter(np.random.default_rng(4277), 2, False))
    # the named filters keep their verdicts (TestLawtonCount pins stretched Haar 3 at count 2)
    @example(h=NAMED_FILTERS["haar"])
    @example(h=NAMED_FILTERS["d4"])
    @example(h=NAMED_FILTERS["lattice-draw-0"])
    @example(h=NAMED_FILTERS["stretched-haar-3"])
    def test_simple_eigenvalue_one_is_l2_convergence(self, h):
        # count 1 exactly when the rest of the spectrum lies strictly inside the disk, at a gap above the
        # error bound of the eigenvalue computation; where the gap exceeds 1e-6, the residual must fall to 0
        gap, err = spectral_gap(h)
        converges = gap > err
        if gap > 1e-6:
            n = int(np.ceil(np.log(1e-14) / np.log(1 - gap)))
            converges = converges and abs(l2_residuals_by_lawton(h, n, 1)[0]) < 1e-10
        assert (lawton_multiplicity(h) == 1) == converges

    def test_triple_stretch_residual_stays_at_one(self):
        h = stretched_haar(3)
        assert l2_residuals_by_lawton(h, 0, 12) == pytest.approx(np.ones(12), abs=1e-12)
        assert l2_residuals_by_lawton(h, 1000, 1)[0] == pytest.approx(1.0, abs=1e-9)


class TestIntertwining:
    XIS = [{0: 1.0}, {0: 1.0, 1: -0.5}, {-1: 0.3, 2: 1.0 + 1j}]

    def test_scaled_coeffs_match_pointwise_definition(self):
        h = daubechies4()
        xi = {0: 1.0, 1: 2.0, -1: 0.5j}
        s = scaled_coeffs(h, xi)
        for theta in (0.1, 0.37, 0.75):
            z = np.exp(2j * np.pi * theta)
            m0 = sum(c * z ** (h.offset + l) for l, c in enumerate(h.coeffs))
            xi_sq = sum(c * z ** (2 * n) for n, c in xi.items())
            lhs = sum(c * z**n for n, c in s.items())
            assert abs(lhs - m0 * xi_sq) < 1e-12

    def test_haar_intertwining_is_exact(self):
        h = haar_filter()
        sf = cascade(h, 5, resolution=8)
        assert intertwining_check(h, self.XIS, sf) == 0.0

    def test_d4_intertwining_tracks_cascade_convergence(self):
        h = daubechies4()
        sf = cascade(h, 30, resolution=9)
        assert intertwining_check(h, self.XIS, sf) < 2e-5


class TestRepresentation:
    def test_haar_representation_identities(self):
        rep = representation_check(haar_filter(), depth=3, levels=4, max_char=2)
        assert rep.covariance_residual < 1e-12
        assert rep.scaling_residual < 1e-12
        assert rep.orthogonality_residual < 1e-12
        dims = rep.span_dimensions
        assert all(b > a for a, b in zip(dims, dims[1:]))

    def test_d4_representation_identities(self):
        rep = representation_check(
            daubechies4(), depth=2, levels=3, max_char=1, space=CircleSpace(degree=128)
        )
        assert rep.covariance_residual < 1e-10
        assert rep.scaling_residual < 1e-12
        assert rep.orthogonality_residual < 1e-12
        dims = rep.span_dimensions
        assert all(b > a for a, b in zip(dims, dims[1:]))

    def test_zero_filter_rejected(self):
        h = QMFFilter.make([0.0, 0.0], require_normalization=False)
        with pytest.raises(NormalizationError):
            representation_check(h)
