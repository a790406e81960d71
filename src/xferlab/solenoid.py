"""The solenoid of an endomorphism: backward-orbit words, shift and lift.

A solenoid word is a truncated backward orbit (x_1, ..., x_n) with
r(x_{i+1}) = x_i, held exactly: state indices on finite carriers, rational
angles on the circle.  The shift sigma drops the head; the lift rhat prepends
r(x_1); on solenoid words they are mutually inverse (up to the length
bookkeeping of truncation).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NormalizationError
from .pathmeasure import (
    CylinderFunctional,
    conditional_expectation,
    sigma_expectation,
)
from .statespace import (
    CircleSpace,
    Measure,
    Observable,
    compose_with_endo,
    integrate,
    worst,
    _check_same,
    _require,
)
from .transferop import TransferOperator


@dataclass(frozen=True, eq=False)
class SolenoidWord:
    """Truncated backward orbit; r(x_{k+1}) = x_k is checked exactly by applying r to the entries: state indices,
    or ``Fraction`` angles that ``space.point`` reduced into [0, 1), where it reads 2 x_{k+1} - x_k in Z."""

    space: object
    entries: tuple

    def __post_init__(self):
        entries = tuple(self.space.point(x) for x in self.entries)
        if len(entries) < 1:
            raise ValueError("a solenoid word needs at least one entry")
        x = np.array(entries)
        if np.any(self.space.forward(x[1:]) != x[:-1]):
            raise ValueError("compatibility r(x_{k+1}) = x_k fails")
        object.__setattr__(self, "entries", entries)

    @property
    def depth(self) -> int:
        return len(self.entries)


def shift(word: SolenoidWord) -> SolenoidWord:
    """sigma: drop the head; the result is one entry shorter."""
    if word.depth < 2:
        raise ValueError("shift needs a word of length >= 2")
    return SolenoidWord(word.space, word.entries[1:])


def rhat(word: SolenoidWord) -> SolenoidWord:
    """The lift of r: prepend r(x_1); the result is one entry longer."""
    return SolenoidWord(word.space, (word.space.forward(word.entries[0]),) + word.entries)


def support_mass(R: TransferOperator, x, n: int) -> float:
    """P_x-mass of length-n words compatible with the endomorphism.

    Exactly 1 when the pull-out axiom holds (the walk only moves backward
    along r); < 1 is the negative-control signal.  Monotone nonincreasing
    in n; on the circle it is 1 by construction (``R.support_mass``).  n
    counts the entries of a word, which has at least one, so n < 1 is
    refused on both carriers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return R.support_mass(x, n)


def ensemble_compatibility_violations(ensemble) -> int:
    """Number of sampled transitions violating the solenoid invariant."""
    return ensemble.space.incompatible_paths(ensemble.paths, ensemble.denominator)


def shift_invariance_residual(mu: Measure, R: TransferOperator, words) -> float:
    """Max over the battery of |int f o sigma dSigma - int f dSigma|.

    Vanishes iff mu o R = mu (given the pull-out axiom).
    """
    efs = [conditional_expectation(R, f) for f in words]
    return worst([abs(integrate(mu, R.apply(ef)) - integrate(mu, ef)) for ef in efs])


# ---------------------------------------------------------------------------
# the lift on cylinder words and the covariance relations


def word_compose_rhat(f: CylinderFunctional) -> CylinderFunctional:
    """f o rhat on the cylinder algebra.

    (phi_1 o pi_1)...(phi_n o pi_n) o rhat
        = ((phi_1 o r) phi_2 o pi_1)(phi_3 o pi_2)...(phi_n o pi_{n-1}).
    """
    head = compose_with_endo(f.word[0])
    if f.depth == 1:
        return CylinderFunctional((head,))
    return CylinderFunctional((head * f.word[1],) + f.word[2:])


def apply_wavelet_U(m: Observable, f: CylinderFunctional) -> CylinderFunctional:
    """U f = (m o pi_1)(f o rhat) on cylinder words."""
    lifted = word_compose_rhat(f)
    return CylinderFunctional((m * lifted.word[0],) + lifted.word[1:])


def lift_conditional_residual(R: TransferOperator, words, points) -> float:
    """Max residual of E_x(f o rhat) = E_{r(x), x}(f) = phi_1(r(x)) E_x(phi_2, ..., phi_n) over words and
    points x (checked by ``space.point``).  Each expectation is taken once per word and evaluated once on
    the array of points, and phi_1 once on the array r(x)."""
    pts = [R.space.point(x) for x in points]
    x = np.array(pts, dtype=None if pts else np.intp)  # Fractions in an object array on the circle
    rx = R.space.forward(x)

    def residual(f):
        rhs = f.word[0](rx)
        if f.depth >= 2:
            rhs = rhs * conditional_expectation(R, CylinderFunctional(f.word[1:]))(x)
        return worst(np.abs(conditional_expectation(R, word_compose_rhat(f))(x) - rhs))

    return worst([residual(f) for f in words])


def covariance_check(
    R: TransferOperator,
    mu: Measure,
    basis,
    words,
    m: Observable | None = None,
) -> dict:
    """Residuals of the covariance relations for U f = f o rhat on cylinder words.

    Reported: V1* U V1 phi = phi o r over `basis`; U* M_F U = M_{F o sigma}
    over pairs from `words`; and norm preservation of U (with optional filter
    weight m) under the stationary mu.
    """
    def v1_gap(phi):
        lifted = conditional_expectation(R, word_compose_rhat(CylinderFunctional((phi,))))
        return (lifted - compose_with_endo(phi)).coeff_norm()

    def multiplication_gap(F, f):
        lhs = (F * word_compose_rhat(f)).shifted()  # (F (f o rhat)) o sigma
        return (conditional_expectation(R, lhs) - conditional_expectation(R, F.shifted() * f)).coeff_norm()

    def norm(f):
        return sigma_expectation(mu, R, f * f.conj())

    def lift(f):
        return word_compose_rhat(f) if m is None else apply_wavelet_U(m, f)

    return {
        "v1_covariance": worst([v1_gap(phi) for phi in basis]),
        "multiplication_covariance": worst([multiplication_gap(F, f) for F in words for f in words]),
        "norm_preservation": worst([abs(norm(lift(f)) - norm(f)) for f in words]),
    }


# ---------------------------------------------------------------------------
# the group case: Haar measure on the circle solenoid


def rotate_observable(phi: Observable, t: Fraction) -> Observable:
    """phi(. * e^{2 pi i t}): multiply coefficient n by e^{2 pi i n t}."""
    n = np.arange(phi.offset, phi.offset + phi.coeffs.size)
    return Observable.from_coeffs(phi.space, phi.coeffs * np.exp(2j * np.pi * n * float(t)), phi.offset)


def translate_word(f: CylinderFunctional, translate: SolenoidWord) -> CylinderFunctional:
    if translate.depth < f.depth:
        raise ValueError("translate word must be at least as deep as the functional")
    return CylinderFunctional(
        tuple(rotate_observable(phi, t) for phi, t in zip(f.word, translate.entries))
    )


def group_translation_invariance(
    R: TransferOperator, mu: Measure, f, translate: SolenoidWord
) -> float:
    """Residual of Haar invariance of Sigma under a solenoid translation.

    Uses the conditional identity E(f(. y) | pi_1 = x) = E(f | pi_1 = x y_1)
    in coefficient arithmetic, plus the resulting global invariance
    |E(f(. y)) - E(f)|.  Requires the uniform weight W = 1/2 and mu = Haar.
    """
    _require(R.space, CircleSpace, "the group case")
    _check_same(R.space, mu.space)  # the Haar measure, the only one on the circle carrier
    if set(R.weight) != {0} or not abs(R.weight.get(0, 0) - 0.5) <= 1e-12:
        raise NormalizationError("group translation invariance requires uniform weight W = 1/2")
    translated = translate_word(f, translate)
    lhs = conditional_expectation(R, translated)
    rhs = rotate_observable(conditional_expectation(R, f), translate.entries[0])
    return worst([(lhs - rhs).coeff_norm(), abs(integrate(mu, lhs) - integrate(mu, conditional_expectation(R, f)))])


def random_solenoid_translate(space: CircleSpace, depth: int, seed: int) -> SolenoidWord:
    """A random rational solenoid word: pick t_1 = p/q with q <= 12, then backward branches."""
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 13))
    t = Fraction(int(rng.integers(0, q)), q)
    entries = [t % 1]
    for _ in range(depth - 1):
        b = int(rng.integers(0, 2))
        t = (entries[-1] + b) / 2
        entries.append(t % 1)
    return SolenoidWord(space, tuple(entries))


# ---------------------------------------------------------------------------
# Smale-Williams attractor (float-precision demo)


@dataclass(frozen=True)
class SmaleWilliamsState:
    """Point of the solid torus: angle t, stored reduced to [0, 1); disk coordinate |z| <= 1."""

    t: float
    z: complex

    def __post_init__(self):
        if not cmath.isfinite(self.t):
            raise ValueError(f"t must be a finite angle, not {self.t}")
        if not abs(self.z) <= 1 + 1e-12:
            raise ValueError("initial point must lie in the solid torus (|z| <= 1)")
        object.__setattr__(self, "t", self.t % 1.0 % 1.0)  # twice: -1e-20 % 1.0 rounds to 1.0


def _step(t: float, z: complex) -> tuple[float, complex]:
    return (2 * t) % 1.0, z / 4 + cmath.exp(2j * cmath.pi * t) / 2


def smale_williams_map(s: SmaleWilliamsState) -> SmaleWilliamsState:
    """r(t, z) = (2t mod 1, z/4 + e^{2 pi i t}/2); image radius <= 3/4."""
    return SmaleWilliamsState(*_step(s.t, s.z))


def smale_williams_orbit(initial: SmaleWilliamsState, steps: int) -> np.ndarray:
    """Forward orbit; rows (t, Re z, Im z) for external plotting.

    A float angle t >= 2^-k is dyadic, with denominator at most 2^(52+k), and 2t mod 1 is exact
    on floats: the orbit reaches t = 0 within 52 + k steps (55 from 0.1), then Im z shrinks by 4
    until it underflows, and by about step 590 the state (0, 2/3) repeats bit for bit. The loop
    stops there and fills the remaining rows with it; past it ``attractor_radius_bound`` checks one point.
    """
    rows = np.empty((steps + 1, 3))
    bits = rows.view(np.uint64)  # compared as bits, since -0.0 == 0.0
    t, z = initial.t, initial.z
    rows[0] = (t, z.real, z.imag)
    for i in range(1, steps + 1):
        t, z = _step(t, z)
        rows[i] = (t, z.real, z.imag)
        if (bits[i] == bits[i - 1]).all():
            rows[i + 1:] = rows[i]
            break
    return rows
