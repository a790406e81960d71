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
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import NormalizationError, XferlabError
from .pathmeasure import CylinderFunctional, conditional_expectation, sigma_expectation
from .solenoid import word_compose_rhat
from .statespace import CircleSpace, Measure, Observable, compose_with_endo, integrate
from .transferop import CircleRuelleOperator, ruelle_from_filter

SQRT2 = math.sqrt(2.0)


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
        if require_normalization and abs(f.coeff_sum() - SQRT2) > 1e-12:
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
        return {
            self.offset + l: complex(c)
            for l, c in enumerate(self.coeffs)
            if c != 0
        }

    def m0_observable(self, space: CircleSpace) -> Observable:
        return Observable.from_fourier(space, self.m0_coeffs())

    def autocorrelation(self, lag: int) -> complex:
        """sum_k h_k conj(h_{k - lag})."""
        c = self.coeffs
        out = 0.0 + 0.0j
        for i in range(c.size):
            j = i - lag
            if 0 <= j < c.size:
                out += c[i] * np.conj(c[j])
        return complex(out)


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
    max_lag = h.length // 2 + 1
    coeff_res = abs(h.autocorrelation(0) - 1.0)
    for n in range(1, max_lag + 1):
        coeff_res = max(coeff_res, abs(h.autocorrelation(2 * n)), abs(h.autocorrelation(-2 * n)))

    theta = np.arange(grid) / grid
    idx = np.arange(h.length) + h.offset

    def m0_abs2(t):
        vals = h.coeffs[None, :] * np.exp(2j * np.pi * np.outer(t, idx))
        return np.abs(vals.sum(axis=1)) ** 2

    fiber = 0.5 * (m0_abs2(theta / 2) + m0_abs2(theta / 2 + 0.5))
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

    def value_at(self, x: float) -> complex:
        """Value at a dyadic point (snapped to the nearest grid index); 0 off support."""
        i = round((x - self.offset) / self.step)
        if 0 <= i < self.values.size:
            return self.values[i]
        return 0.0

    def normalized(self) -> "ScalingFunction":
        """Rescale to unit integral.

        A no-op for quadrature-mirror filters (the cascade preserves mass);
        for negative controls the grid iteration can inflate mass through
        aliasing, and the normalized output is what converges weakly.
        """
        total = self.values.sum() * self.step
        return ScalingFunction(
            self.resolution,
            self.offset,
            self.values / total,
            list(self.refinement_residuals),
        )


def _cascade_step(h: QMFFilter, values: np.ndarray, g: int) -> np.ndarray:
    """One refinement: phi'(i/g) = sqrt(2) sum_l h_l phi((2i - l g)/g)."""
    out = np.zeros_like(values)
    m = values.size
    src = 2 * np.arange(m)
    for l, c in enumerate(h.coeffs):
        if c == 0:
            continue
        idx = src - l * g
        ok = (idx >= 0) & (idx < m)
        out[ok] += SQRT2 * c * values[idx[ok]]
    return out


def cascade(
    h: QMFFilter,
    iterations: int,
    resolution: int = 10,
    qmf_tol: float = 1e-10,
    allow_non_qmf: bool = False,
) -> ScalingFunction:
    """Iterate the refinement operator from the indicator of [0, 1).

    Requires the quadrature-mirror property unless explicitly waived (the
    waiver exists for negative controls; convergence is then not expected).
    Raises on three consecutive iterations of growing refinement residual.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if h.length < 2:
        raise ValueError("cascade needs a filter of length >= 2")
    if not allow_non_qmf and qmf_check(h).coeff_residual > qmf_tol:
        raise NormalizationError(
            "filter fails the quadrature-mirror identity; pass allow_non_qmf=True "
            "to cascade a negative control"
        )
    g = 2**resolution
    m = (h.length - 1) * g
    values = np.zeros(m, dtype=complex)
    values[: min(g, m)] = 1.0  # indicator of [0, 1) relative to the support start
    residuals: list[float] = []
    growing = 0
    for _ in range(iterations):
        nxt = _cascade_step(h, values, g)
        res = float(np.max(np.abs(nxt - values)))
        if residuals and res > residuals[-1]:
            growing += 1
            if growing >= 3:
                raise XferlabError("cascade diverging: residual grew 3 iterations in a row")
        else:
            growing = 0
        residuals.append(res)
        values = nxt
    return ScalingFunction(resolution, h.offset, values, residuals)


def translate_orthogonality(sf: ScalingFunction) -> dict[int, complex]:
    """a(k) = int phi(x) conj(phi(x - k)) dx on the grid, for all overlapping k."""
    g = 2**sf.resolution
    max_k = (sf.values.size - 1) // g
    out: dict[int, complex] = {}
    for k in range(-max_k, max_k + 1):
        shift = k * g
        if shift >= 0:
            v = sf.values[shift:] * np.conj(sf.values[: sf.values.size - shift])
        else:
            v = sf.values[: sf.values.size + shift] * np.conj(sf.values[-shift:])
        a = complex(v.sum() * sf.step)
        out[k] = a
    return out


def _lawton_pairs(h: QMFFilter):
    idx = np.arange(h.length)
    return [
        (int(m - n), h.coeffs[n] * np.conj(h.coeffs[m]))
        for n in idx
        for m in idx
        if h.coeffs[n] != 0 and h.coeffs[m] != 0
    ]


def lawton_apply(h: QMFFilter, a: Mapping[int, complex]) -> dict[int, complex]:
    """One step of the autocorrelation transfer map (T a)(k) = sum h_n conj(h_m) a(2k + m - n).

    The translate-correlation sequence of the scaling function is a fixed
    point of T supported on |k| <= len(h) - 2.
    """
    span = h.length - 1
    pairs = _lawton_pairs(h)
    out = {}
    for k in range(-span, span + 1):
        s = 0.0j
        for d, c in pairs:
            s += c * a.get(2 * k + d, 0.0j)
        out[k] = s
    return out


def orthogonality_from_filter(
    h: QMFFilter, iterations: int = 60
) -> dict[int, complex]:
    """Autocorrelation fixed point reached from the delta sequence.

    For an orthogonal filter this converges to the translate-correlation
    sequence (the delta itself).  Note the delta is fixed by T for *every*
    quadrature-mirror filter, so failure of orthogonality must be read off
    the eigenvalue-1 multiplicity (lawton_multiplicity), not this iteration.
    """
    span = h.length - 1
    a = {k: (1.0 + 0.0j if k == 0 else 0.0j) for k in range(-span, span + 1)}
    for _ in range(iterations):
        a = lawton_apply(h, a)
    return a


def lawton_multiplicity(h: QMFFilter, tol: float = 1e-8) -> int:
    """Multiplicity of eigenvalue 1 of the autocorrelation transfer matrix.

    Translates of the scaling function are orthonormal exactly when this is
    1 (the delta sequence is then the only fixed point).
    """
    span = h.length - 1
    lags = list(range(-span, span + 1))
    pos = {k: i for i, k in enumerate(lags)}
    t = np.zeros((len(lags), len(lags)), dtype=complex)
    for d, c in _lawton_pairs(h):
        for k in lags:
            j = 2 * k + d
            if j in pos:
                t[pos[k], pos[j]] += c
    ev = np.linalg.eigvals(t)
    return int(np.sum(np.abs(ev - 1.0) < tol))


def orthogonality_defect(a: Mapping[int, complex]) -> float:
    """max(|a(0) - 1|, max_{k != 0} |a(k)|)."""
    out = abs(a.get(0, 0.0) - 1.0)
    for k, v in a.items():
        if k != 0:
            out = max(out, abs(v))
    return float(out)


# ---------------------------------------------------------------------------
# the classical intertwining W S0 = U W on the line


def scaled_coeffs(h: QMFFilter, xi: Mapping[int, complex]) -> dict[int, complex]:
    """Coefficients of S0 xi, where (S0 xi)(z) = m0(z) xi(z^2)."""
    out: dict[int, complex] = {}
    for l, c in enumerate(h.coeffs):
        if c == 0:
            continue
        a = h.offset + l
        for n, x in xi.items():
            out[a + 2 * n] = out.get(a + 2 * n, 0) + c * x
    return {k: v for k, v in out.items() if v != 0}


def eval_translates(sf: ScalingFunction, xi: Mapping[int, complex], xs: np.ndarray) -> np.ndarray:
    """(W xi)(x) = sum_n xi_n phi(x - n) at the given points."""
    out = np.zeros(xs.size, dtype=complex)
    for n, c in xi.items():
        if c == 0:
            continue
        for i, x in enumerate(xs):
            out[i] += c * sf.value_at(x - n)
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
    res = 0.0
    for xi in xis:
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
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    return res


# ---------------------------------------------------------------------------
# the wavelet representation on the circle solenoid


@dataclass
class RepresentationReport:
    covariance_residual: float
    scaling_residual: float
    orthogonality_residual: float
    span_dimensions: list[int]


def apply_wavelet_U(m: Observable, f: CylinderFunctional) -> CylinderFunctional:
    """U f = (m o pi_1)(f o rhat) on cylinder words."""
    lifted = word_compose_rhat(f)
    return CylinderFunctional((m * lifted.word[0],) + lifted.word[1:])


def _forward_dilates(m: Observable, g: Observable, p: int) -> Observable:
    """U^p (g o pi_1) = (m (m o r) ... (m o r^{p-1}) (g o r^p)) o pi_1."""
    out = Observable.constant(m.space, 1.0)
    cur = m
    for _ in range(p):
        out = out * cur
        cur = compose_with_endo(cur)
    comp = g
    for _ in range(p):
        comp = compose_with_endo(comp)
    return out * comp


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
    cov = 0.0
    for f in chars:
        fr = compose_with_endo(f)
        for g in basis_words:
            lhs = apply_wavelet_U(m, CylinderFunctional((f * g.word[0],) + g.word[1:]))
            ug = apply_wavelet_U(m, g)
            rhs = CylinderFunctional((fr * ug.word[0],) + ug.word[1:])
            diff = conditional_expectation(R, lhs) - conditional_expectation(R, rhs)
            cov = max(cov, diff.coeff_norm())

    u_one = apply_wavelet_U(m, CylinderFunctional((one,)))
    scaling = (conditional_expectation(R, u_one) - m).coeff_norm()

    orth = 0.0
    for f in chars:
        orth = max(
            orth,
            abs(sigma_expectation(mu, R, CylinderFunctional((f,))) - integrate(mu, f)),
        )

    dims = _span_dimensions(m, chars, levels, mu)
    return RepresentationReport(float(cov), float(scaling), float(orth), dims)


def _word_basis(chars, depth):
    words = [[c] for c in chars]
    # keep the basis small: singletons at every coordinate up to the depth cap
    out = list(words)
    for d in range(2, depth + 1):
        for c in chars:
            out.append([c] + [Observable.constant(c.space, 1.0)] * (d - 2) + [c])
    return out


def _span_dimensions(m, chars, levels, mu) -> list[int]:
    """Ranks of the Gram matrices of {U^{-j} pi(e_k) 1 : j <= n}.

    Inner products reduce by unitarity to <pi(f) 1, U^p pi(g) 1>, and the
    forward power U^p pi(g) 1 is an explicit trig polynomial in the first
    coordinate.
    """
    from .statespace import inner_product

    family = [(j, c) for j in range(levels + 1) for c in chars]
    gram = np.zeros((len(family), len(family)), dtype=complex)
    for a, (j, f) in enumerate(family):
        for b, (l, g) in enumerate(family):
            if j >= l:
                gram[a, b] = inner_product(mu, _forward_dilates(m, g, j - l), f)
    # the entries with j < l, by Hermitian symmetry
    level = np.array([j for j, _ in family])
    upper = level[:, None] < level[None, :]
    gram[upper] = gram.T.conj()[upper]
    dims = []
    per_level = len(chars)
    for lvl in range(levels + 1):
        k = (lvl + 1) * per_level
        sub = gram[:k, :k]
        ev = np.linalg.eigvalsh((sub + sub.conj().T) / 2)
        dims.append(int(np.sum(ev > 1e-8 * max(ev.max(), 1.0))))
    return dims
