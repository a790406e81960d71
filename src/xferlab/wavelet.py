"""Filters for the doubling map and the induced wavelet machinery.

A filter is a finitely supported sequence (h_n) with m0(z) = sum h_n z^n.
The quadrature-mirror property -- the fiber-averaged |m0|^2 equals 1 -- is
checked both in coefficient form (even-lag autocorrelations vanish, lag 0 is
1) and directly on a grid.  The scaling function solving
phi(x) = sqrt(2) sum h_n phi(2x - n) is approximated by cascade iteration on
a dyadic grid, and the representation built from a filter is verified on the
cylinder algebra of the circle solenoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConvergenceError, NormalizationError
from .pathmeasure import CylinderFunctional, conditional_expectation, sigma_expectation
from .solenoid import apply_wavelet_U
from .statespace import (
    CircleSpace,
    Measure,
    Observable,
    autocorrelation,
    coeffs_at,
    compose_with_endo,
    convolve,
    dense_coeffs,
    doubled,
    even_gather,
    horner,
    integrate,
    sparse_coeffs,
    worst,
)
from .transferop import CERTIFICATE_C, ruelle_from_filter

SQRT2 = math.sqrt(2.0)
QMF_TOL = 1e-10  # largest coefficient residual of a filter taken as quadrature-mirror


@dataclass(frozen=True, eq=False)
class QMFFilter:
    """Finitely supported filter coefficients; coeffs[l] sits at index offset + l."""

    coeffs: np.ndarray
    offset: int = 0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("filter coefficients must form a nonempty 1-d sequence")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def make(cls, coeffs: Sequence, offset: int = 0, require_normalization: bool = True):
        f = cls(np.asarray(coeffs, dtype=complex), offset)
        if require_normalization and not abs(f.coeff_sum() - SQRT2) <= 1e-12:  # so that NaN fails
            raise NormalizationError(
                f"filter coefficients sum to {f.coeff_sum()}, expected sqrt(2)"
            )
        return f

    def coeff_sum(self) -> complex:
        return complex(self.coeffs.sum())

    @property
    def length(self) -> int:
        return int(self.coeffs.size)

    def m0_coeffs(self) -> dict[int, complex]:
        return sparse_coeffs(self.coeffs, self.offset)

    def m0_observable(self, space: CircleSpace) -> Observable:
        return Observable.from_fourier(space, self.m0_coeffs())

    def autocorrelation(self) -> np.ndarray:
        """a_lag = sum_k h_k conj(h_{k - lag}) at entry lag + length - 1, for |lag| < length: twice the W of
        ``ruelle_from_filter``, bit for bit, from the one ``autocorrelation`` loop."""
        return autocorrelation(self.coeffs)


def haar_filter() -> QMFFilter:
    return QMFFilter.make([1 / SQRT2, 1 / SQRT2])


def stretched_haar(k: int = 2) -> QMFFilter:
    """h_0 = h_k = 1/sqrt(2): the Haar filter sampled at z^k.

    The quadrature-mirror property survives only for odd k; even stretches
    are the standard negative controls.
    """
    c = np.zeros(k + 1, dtype=complex)
    c[0] = c[k] = 1 / SQRT2
    return QMFFilter.make(c)


def daubechies4() -> QMFFilter:
    """The 4-tap orthogonal filter with one vanishing moment beyond Haar."""
    s3 = math.sqrt(3.0)
    return QMFFilter.make(np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * SQRT2))


@dataclass
class QMFReport:
    coeff_residual: float
    grid_residual: float
    normalization_residual: float


def qmf_check(h: QMFFilter, grid: int = 1024) -> QMFReport:
    """Both faces of the quadrature-mirror identity.

    Coefficient form: sum_k h_k conj(h_{k-2n}) = delta_{n,0}.  Grid form:
    (1/2) sum_{w^2=z} |m0(w)|^2 = 1 at grid points z.
    """
    acf, lag0 = even_gather(h.autocorrelation(), 1 - h.length)  # the even lags 2n, from n = lag0
    acf[-lag0] -= 1.0
    coeff_res = np.max(np.abs(acf))

    w = np.exp(1j * np.pi * np.arange(grid) / grid)  # a square root of each grid point; -w is the other
    fiber = 0.5 * (np.abs(horner(h.coeffs, h.offset, w)) ** 2 + np.abs(horner(h.coeffs, h.offset, -w)) ** 2)
    grid_res = float(np.max(np.abs(fiber - 1.0)))
    return QMFReport(
        coeff_residual=float(coeff_res),
        grid_residual=grid_res,
        normalization_residual=float(abs(h.coeff_sum() - SQRT2)),
    )


# ---------------------------------------------------------------------------
# cascade approximation of the scaling function


@dataclass(eq=False)
class ScalingFunction:
    """Samples of the refinement-equation solution on a dyadic grid.

    Values live at x = offset + i / 2^J for i = 0 .. (length-1) * 2^J - 1
    (half-open support interval).
    """

    resolution: int
    offset: int
    values: np.ndarray
    refinement_residuals: list[float] = field(default_factory=list)

    @property
    def step(self) -> float:
        return 2.0 ** (-self.resolution)

    def integral(self) -> complex:
        total = self.values.sum() * self.step
        return float(total.real) if abs(total.imag) < 1e-12 else complex(total)

    def value_at(self, x):
        """Value at dyadic points (snapped to the nearest grid index), elementwise; 0 off support."""
        i = np.rint((np.asarray(x) - self.offset) / self.step).astype(int)
        return coeffs_at(self.values, 0, i)[()]

    def normalized(self) -> "ScalingFunction":
        """Rescale to unit integral.

        A no-op for quadrature-mirror filters (the cascade preserves mass);
        for negative controls the grid iteration can inflate mass through
        aliasing, and the normalized output is what converges weakly.
        """
        total = self.values.sum() * self.step
        return replace(self, values=self.values / total, refinement_residuals=list(self.refinement_residuals))


def _cascade_step(h: QMFFilter, values: np.ndarray, g: int) -> np.ndarray:
    """One refinement: phi'(i/g) = sqrt(2) sum_l h_l phi((2i - l g)/g).  For an even g, tap l adds the even
    samples shifted by l g / 2, and each shifted copy ends inside the grid of m = (len(h) - 1) g samples."""
    out = np.zeros_like(values)
    for l, c in enumerate(h.coeffs):
        if c != 0:
            out[l * g // 2 : (l * g + values.size) // 2] += SQRT2 * c * values[::2]
    return out


def cascade(
    h: QMFFilter,
    iterations: int,
    resolution: int = 10,
    allow_non_qmf: bool = False,
) -> ScalingFunction:
    """Iterate the refinement operator from the indicator of [0, 1), all ``iterations`` times.

    Requires the quadrature-mirror property unless explicitly waived (the
    waiver exists for negative controls; convergence is then not expected).
    The sup-norm ``refinement_residuals`` are report data only: the L2
    convergence of a QMF cascade is certified by ``lawton_multiplicity``
    (a simple eigenvalue 1 means orthonormal, hence stable, translates), not
    read from them, since a convergent cascade can grow pointwise on the grid.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if h.length < 2:
        raise ValueError("cascade needs a filter of length >= 2")
    if not allow_non_qmf and not qmf_check(h).coeff_residual <= QMF_TOL:
        raise NormalizationError(
            "filter fails the quadrature-mirror identity; pass allow_non_qmf=True "
            "to cascade a negative control"
        )
    g = 2**resolution
    values = np.zeros((h.length - 1) * g, dtype=complex)
    values[:g] = 1.0  # indicator of [0, 1) relative to the support start
    residuals: list[float] = []
    for _ in range(iterations):
        nxt = _cascade_step(h, values, g)
        residuals.append(float(np.max(np.abs(nxt - values))))
        values = nxt
    return ScalingFunction(resolution, h.offset, values, residuals)


def translate_orthogonality(sf: ScalingFunction) -> dict[int, complex]:
    """a(k) = int phi(x) conj(phi(x - k)) dx on the grid, for all overlapping k: the k-th subdiagonal sum of the
    Gram matrix V V^H, whose row j of V holds the samples on the unit interval [j, j + 1)."""
    v = sf.values.reshape(-1, 2**sf.resolution)
    gram = v @ v.conj().T
    return {k: complex(np.trace(gram, offset=-k) * sf.step) for k in range(1 - len(v), len(v))}


def lawton_multiplicity(h: QMFFilter) -> int:
    """Certified multiplicity of eigenvalue 1 of the Lawton matrix ``_lawton_matrix(h)``.

    For a quadrature-mirror filter the translates of the scaling function are
    orthonormal exactly when this is 1 (Lawton 1991; Cohen 1990).  The count is
    the number of singular values of T - I at or below
    tau = CERTIFICATE_C n eps ||T||_2 + n delta, with delta the QMF coefficient
    residual.  ConvergenceError is raised when a singular value lies in
    (tau, 100 tau], where the count is not certain; NormalizationError when the
    filter is not QMF, where the criterion does not hold.
    """
    delta = qmf_check(h).coeff_residual
    if not delta <= QMF_TOL:
        raise NormalizationError(
            f"filter fails the quadrature-mirror identity by {delta:.3g}; "
            "Lawton's criterion needs a QMF filter"
        )
    t = _lawton_matrix(h)
    n = len(t)
    s = np.linalg.svd(t - np.eye(n), compute_uv=False)
    tau = CERTIFICATE_C * n * np.finfo(float).eps * np.linalg.norm(t, 2) + n * delta
    if np.any((s > tau) & (s <= 100 * tau)):
        raise ConvergenceError(f"no clear gap above {tau:.3g} in the singular values of T - I: {np.sort(s)}")
    return int(np.sum(s <= tau))


def _lawton_matrix(h: QMFFilter) -> np.ndarray:
    """The autocorrelation transfer matrix on the lags |k| <= len(h) - 1: t[k, j] = A_{2k - j}.

    This is (T a)(k) = sum h_n conj(h_m) a(2k + m - n), Ruelle's operator R_W on
    trigonometric polynomials of degree below len(h), with A the filter
    autocorrelation.  The translate-correlation sequence of the scaling
    function is a fixed point of T, and so is the delta for every QMF filter.
    """
    lags = np.arange(1 - h.length, h.length)
    return coeffs_at(h.autocorrelation(), 1 - h.length, 2 * lags[:, None] - lags[None, :])


def orthogonality_defect(a: Mapping[int, complex]) -> float:
    """max(|a(0) - 1|, max_{k != 0} |a(k)|)."""
    return worst([abs(a.get(0, 0.0) - 1.0), *(abs(v) for k, v in a.items() if k != 0)])


# ---------------------------------------------------------------------------
# the classical intertwining W S0 = U W on the line


def scaled_coeffs(h: QMFFilter, xi: Mapping[int, complex]) -> dict[int, complex]:
    """Coefficients of S0 xi, where (S0 xi)(z) = m0(z) xi(z^2): one convolution with xi o r."""
    dense, offset = dense_coeffs(xi)
    return sparse_coeffs(convolve(h.coeffs, doubled(dense)), h.offset + 2 * offset)


def eval_translates(sf: ScalingFunction, xi: Mapping[int, complex], xs: np.ndarray) -> np.ndarray:
    """(W xi)(x) = sum_n xi_n phi(x - n) at the given points."""
    out = np.zeros(xs.size, dtype=complex)
    for n, c in xi.items():
        if c != 0:
            out += c * sf.value_at(xs - n)
    return out


def intertwining_check(
    h: QMFFilter, xis: Sequence[Mapping[int, complex]], sf: ScalingFunction
) -> float:
    """Sup-norm residual of (W S0 xi)(x) = (1/sqrt(2)) (W xi)(x/2) on a dyadic grid.

    Evaluated at resolution one below the scaling-function grid (so x/2 also
    lands on stored samples); the residual is bounded by the refinement
    residual of the cascade iterate, hence by its convergence.
    """
    supp = h.length - 1  # support length of phi in x-units

    def residual(xi):
        s = scaled_coeffs(h, xi)
        lhs_lo = sf.offset + min(s, default=0)
        lhs_hi = sf.offset + max(s, default=0) + supp
        rhs_lo = 2 * (sf.offset + min(xi, default=0))
        rhs_hi = 2 * (sf.offset + max(xi, default=0) + supp)
        lo, hi = min(lhs_lo, rhs_lo), max(lhs_hi, rhs_hi)
        two = 2 * sf.step
        xs = lo + two * np.arange(int(round((hi - lo) / two)) + 1)
        lhs = eval_translates(sf, s, xs)
        rhs = eval_translates(sf, xi, xs / 2) / SQRT2
        return worst(np.abs(lhs - rhs))

    return worst([residual(xi) for xi in xis])


# ---------------------------------------------------------------------------
# the wavelet representation on the circle solenoid


@dataclass
class RepresentationReport:
    covariance_residual: float
    scaling_residual: float
    orthogonality_residual: float
    span_dimensions: list[int]


def representation_check(
    h: QMFFilter,
    depth: int = 3,
    levels: int = 4,
    max_char: int = 2,
    space: CircleSpace | None = None,
) -> RepresentationReport:
    """Verify the wavelet-representation identities on the circle solenoid.

    Covariance U pi(f) U* = pi(f o r) and the scaling equation U 1 = pi(m0) 1
    are checked on the depth-capped cylinder basis; orthogonality
    <pi(f) 1, 1> = int f dHaar exactly; density is reported as the sequence
    of span dimensions of {U^{-n} pi(f) 1}, which is all a finite computation
    can certify.
    """
    space = space or CircleSpace(degree=256)
    if not any(c != 0 for c in h.coeffs):
        raise NormalizationError("singular filter: m0 is identically zero")
    R = ruelle_from_filter(space, h.m0_coeffs())
    mu = Measure.haar_measure(space)
    m = h.m0_observable(space)
    chars = [Observable.character(space, n) for n in range(-max_char, max_char + 1)]

    one = Observable.constant(space, 1.0)
    basis_words = [CylinderFunctional(tuple(w)) for w in _word_basis(chars, depth)]

    # covariance, checked as U pi(f) g = pi(f o r) U g at the measure level
    def covariance_gap(f, fr, g, ug):
        lhs = apply_wavelet_U(m, CylinderFunctional((f * g.word[0],) + g.word[1:]))
        rhs = CylinderFunctional((fr * ug.word[0],) + ug.word[1:])
        return (conditional_expectation(R, lhs) - conditional_expectation(R, rhs)).coeff_norm()

    lifts = [(f, compose_with_endo(f)) for f in chars]
    lifted_words = [(g, apply_wavelet_U(m, g)) for g in basis_words]
    cov = worst([covariance_gap(f, fr, g, ug) for f, fr in lifts for g, ug in lifted_words])

    u_one = apply_wavelet_U(m, CylinderFunctional((one,)))
    scaling = (conditional_expectation(R, u_one) - m).coeff_norm()

    orth = worst([abs(sigma_expectation(mu, R, CylinderFunctional((f,))) - integrate(mu, f)) for f in chars])

    dims = _span_dimensions(m, max_char, levels)
    return RepresentationReport(cov, scaling, orth, dims)


def _word_basis(chars, depth):
    # keep the basis small: singletons at every coordinate up to the depth cap
    out = [[c] for c in chars]
    for d in range(2, depth + 1):
        for c in chars:
            out.append([c] + [Observable.constant(c.space, 1.0)] * (d - 2) + [c])
    return out


def _span_gram(m, max_char, levels) -> np.ndarray:
    """The Gram matrix of {U^{-j} pi(e_k) 1 : j <= levels, |k| <= max_char}, level by level.

    Inner products reduce by unitarity to <pi(e_f) 1, U^p pi(e_g) 1> with p = j - l,
    and U^p pi(e_g) 1 = (P_p e_{g 2^p}) o pi_1 with the prefix product
    P_p = m (m o r) ... (m o r^{p-1}); so the entry is the coefficient of P_p at f - g 2^p.
    """
    prefix, dilate = [Observable.constant(m.space, 1.0)], m
    for _ in range(levels):
        prefix.append(prefix[-1] * dilate)
        dilate = compose_with_endo(dilate)
    k = np.arange(-max_char, max_char + 1)
    n = k.size
    gram = np.zeros(((levels + 1) * n,) * 2, dtype=complex)
    for j in range(levels + 1):
        for l in range(j + 1):
            p = prefix[j - l]
            block = coeffs_at(p.coeffs, p.offset, k[:, None] - k[None, :] * 2 ** (j - l))
            gram[j * n : (j + 1) * n, l * n : (l + 1) * n] = block
            if l < j:  # the entries with j < l, by Hermitian symmetry
                gram[l * n : (l + 1) * n, j * n : (j + 1) * n] = block.conj().T
    return gram


def _span_dimensions(m, max_char, levels) -> list[int]:
    """Ranks of the leading level-by-level blocks of ``_span_gram``."""
    gram = _span_gram(m, max_char, levels)
    per_level = 2 * max_char + 1
    dims = []
    for lvl in range(levels + 1):
        k = (lvl + 1) * per_level
        sub = gram[:k, :k]
        ev = np.linalg.eigvalsh((sub + sub.conj().T) / 2)
        dims.append(int(np.sum(ev > 1e-8 * max(ev.max(), 1.0))))
    return dims
