"""Carriers for the base space: finite state sets and the circle.

Two carriers are supported.  ``FiniteSpace`` is an ordered finite set of
labelled states, optionally equipped with an onto self-map (which on a finite
set is necessarily a bijection, so genuine N-to-1 dynamics live on the
circle).  ``CircleSpace`` is the unit circle under the doubling map, with the
function algebra truncated to Laurent polynomials of a fixed maximal degree;
anything that would leave the truncation raises ``DegreeOverflowError``
instead of silently truncating.
A circle observable is a dense coefficient array plus the index of its first
entry; README.md says which identities on it are exact in floating point.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    CarrierMismatchError,
    DegreeOverflowError,
    NoEndomorphismError,
    NormalizationError,
)

DEFAULT_DEGREE = 64
DEFAULT_GRID = 1024

Angle = Union[Fraction, float]


@dataclass(frozen=True)
class FiniteSpace:
    """Finite carrier: ordered state labels plus an optional endomorphism.

    ``endo[i]`` is the index of r(states[i]).  The map must be onto; on a
    finite set that forces it to be a bijection, so every fiber is a
    singleton.
    """

    states: tuple
    endo: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if self.endo is not None:
            endo = tuple(int(i) for i in self.endo)
            if len(endo) != len(self.states):
                raise ValueError("endo must assign an image to every state")
            if set(endo) != set(range(len(self.states))):
                raise ValueError("endo must be onto (hence bijective on a finite set)")
            object.__setattr__(self, "endo", endo)

    @property
    def n(self) -> int:
        return len(self.states)

    def index(self, label) -> int:
        return self.states.index(label)

    def fiber(self, i: int) -> tuple[int, ...]:
        """Inverse image r^{-1}(states[i]) as a tuple of indices."""
        if self.endo is None:
            raise NoEndomorphismError("space has no endomorphism")
        return tuple(j for j in range(self.n) if self.endo[j] == i)

    def apply_endo(self, i: int) -> int:
        if self.endo is None:
            raise NoEndomorphismError("space has no endomorphism")
        return self.endo[i]


@dataclass(frozen=True)
class CircleSpace:
    """The circle under z -> z^2, with trig polynomials of degree <= degree.

    ``grid`` is the uniform evaluation grid used for sampling and pointwise
    (non-exact) checks; it plays no role in the coefficient algebra.
    """

    degree: int = DEFAULT_DEGREE
    grid: int = DEFAULT_GRID

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")

    @staticmethod
    def forward(t: Angle) -> Angle:
        """The doubling map on angles, r(t) = 2t mod 1."""
        return (2 * t) % 1

    @staticmethod
    def preimages(t: Fraction) -> tuple[Fraction, Fraction]:
        """The two square roots of e^{2 pi i t}, as exact angles."""
        t = Fraction(t) % 1
        return (t / 2, (t + 1) / 2)


Space = Union[FiniteSpace, CircleSpace]


def angle_point(t: Angle) -> complex:
    """e^{2 pi i t}."""
    return cmath.exp(2j * cmath.pi * float(t))


def _check_same(a: Space, b: Space) -> None:
    if a != b:
        raise CarrierMismatchError(f"carriers differ: {a!r} vs {b!r}")


def dense_coeffs(coeffs: Mapping[int, complex]) -> tuple[np.ndarray, int]:
    """A coefficient map as a dense array and the index of its first entry, zeros pruned."""
    pruned = {int(n): complex(c) for n, c in coeffs.items() if c != 0}
    offset = min(pruned, default=0)
    out = np.zeros(max(pruned, default=offset - 1) - offset + 1, dtype=complex)
    out[np.fromiter(pruned, int, len(pruned)) - offset] = list(pruned.values())
    return out, offset


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient convolution of two dense arrays (pointwise product of the polynomials)."""
    return np.convolve(a, b) if a.size and b.size else a[:0]


def doubled(coeffs: np.ndarray) -> np.ndarray:
    """The stride-2 scatter taking the coefficients of phi to those of phi o r."""
    out = np.zeros(max(2 * coeffs.size - 1, 0), dtype=complex)
    out[::2] = coeffs
    return out


def horner(coeffs: np.ndarray, offset: int, z):
    """sum_j coeffs[j] z^(offset + j) at one unit-modulus point z or an array of them.

    Horner's rule runs over the coefficients and is vectorised across the
    points, so memory stays O(points) at any degree.
    """
    acc = 0j
    for c in reversed(coeffs.tolist()):
        acc = acc * z + c
    return acc * z**offset


@dataclass(frozen=True, eq=False)
class Observable:
    """A function on a carrier.

    Finite carrier: a value per state.  Circle: the Laurent polynomial
    sum_j coeffs[j] z^(offset + j), with coeffs a complex array whose first
    and last entries are nonzero (empty for the zero function) and every
    index within space.degree in absolute value.
    """

    space: Space
    values: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    offset: int = 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_values(cls, space: FiniteSpace, values: Sequence) -> "Observable":
        arr = np.asarray(values)
        if arr.shape != (space.n,):
            raise ValueError("value vector length must match the state count")
        return cls(space, values=arr)

    @classmethod
    def from_coeffs(cls, space: CircleSpace, coeffs, offset: int = 0) -> "Observable":
        """coeffs[j] is the coefficient of z^(offset + j); the array is trimmed, not copied."""
        c = np.asarray(coeffs, dtype=complex)
        if not (c.size and c[0] and c[-1]):  # trim the zero ends
            nz = np.flatnonzero(c)
            c, offset = (c[nz[0] : nz[-1] + 1], offset + int(nz[0])) if nz.size else (c[:0], 0)
        phi = cls(space, coeffs=c, offset=offset)
        if phi.degree > space.degree:
            raise DegreeOverflowError(
                f"coefficient index {phi.degree} exceeds the degree bound {space.degree}"
            )
        return phi

    @classmethod
    def from_fourier(cls, space: CircleSpace, coeffs: Mapping[int, complex]) -> "Observable":
        return cls.from_coeffs(space, *dense_coeffs(coeffs))

    @classmethod
    def constant(cls, space: Space, c=1.0) -> "Observable":
        if isinstance(space, CircleSpace):
            return cls.from_coeffs(space, np.array([c], dtype=complex))
        return cls.from_values(space, np.full(space.n, c))

    @classmethod
    def character(cls, space: CircleSpace, n: int) -> "Observable":
        """e_n(z) = z^n."""
        return cls.from_coeffs(space, np.ones(1, dtype=complex), n)

    @classmethod
    def indicator(cls, space: FiniteSpace, i: int) -> "Observable":
        v = np.zeros(space.n)
        v[i] = 1.0
        return cls.from_values(space, v)

    # -- basic queries -----------------------------------------------------

    @property
    def fourier(self) -> dict[int, complex] | None:
        """The nonzero coefficients n -> c_n (circle), derived from the array; None on finite carriers."""
        if self.coeffs is None:
            return None
        nz = np.flatnonzero(self.coeffs)
        return dict(zip((nz + self.offset).tolist(), self.coeffs[nz].tolist()))

    @property
    def degree(self) -> int:
        if self.coeffs is None:
            raise TypeError("degree is only defined on the circle carrier")
        return max(-self.offset, self.offset + self.coeffs.size - 1, 0)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Evaluate: state index (finite) or angle / unit-modulus complex (circle)."""
        if self.values is not None:
            return self.values[x]
        z = x if isinstance(x, complex) else angle_point(x)
        return horner(self.coeffs, self.offset, z)

    def eval_grid(self, size: int | None = None) -> np.ndarray:
        """Values on the uniform angle grid k/size, k=0..size-1 (circle only)."""
        if self.coeffs is None:
            raise TypeError("eval_grid is only defined on the circle carrier")
        size = size or self.space.grid
        z = np.exp(2j * np.pi * np.arange(size) / size)
        return horner(self.coeffs, self.offset, z)

    # -- algebra -----------------------------------------------------------

    def _like(self, other: "Observable") -> None:
        if not isinstance(other, Observable):
            raise TypeError("expected an Observable")
        _check_same(self.space, other.space)

    def __add__(self, other: "Observable") -> "Observable":
        self._like(other)
        if self.values is not None:
            return Observable.from_values(self.space, self.values + other.values)
        low = min(self.offset, other.offset)
        out = np.zeros(max(p.offset + p.coeffs.size for p in (self, other)) - low, dtype=complex)
        for p in (self, other):
            out[p.offset - low : p.offset - low + p.coeffs.size] += p.coeffs
        return Observable.from_coeffs(self.space, out, low)

    def __sub__(self, other: "Observable") -> "Observable":
        return self + (-1.0) * other

    def __mul__(self, other):
        if not isinstance(other, Observable):
            if self.values is not None:
                return Observable.from_values(self.space, self.values * other)
            return Observable.from_coeffs(self.space, self.coeffs * other, self.offset)
        self._like(other)
        if self.values is not None:
            return Observable.from_values(self.space, self.values * other.values)
        return Observable.from_coeffs(
            self.space, convolve(self.coeffs, other.coeffs), self.offset + other.offset
        )

    __rmul__ = __mul__

    def conj(self) -> "Observable":
        if self.values is not None:
            return Observable.from_values(self.space, np.conj(self.values))
        return Observable.from_coeffs(
            self.space, self.coeffs[::-1].conj(), -(self.offset + self.coeffs.size - 1)
        )

    def sup_norm(self, grid: int | None = None) -> float:
        if self.values is not None:
            return float(np.max(np.abs(self.values))) if self.space.n else 0.0
        return float(np.max(np.abs(self.eval_grid(grid))))

    def coeff_norm(self) -> float:
        """Max absolute Fourier coefficient (circle); max abs value (finite)."""
        if self.values is not None:
            return self.sup_norm()
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0


@dataclass(frozen=True, eq=False)
class Measure:
    """Probability measure on a carrier: weights per state, or Haar on the circle."""

    space: Space
    weights: np.ndarray | None = None
    haar: bool = False

    @classmethod
    def from_weights(cls, space: FiniteSpace, weights: Sequence) -> "Measure":
        w = np.asarray(weights, dtype=float)
        if w.shape != (space.n,):
            raise ValueError("weight vector length must match the state count")
        if np.any(w < 0):
            raise NormalizationError("measure weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise NormalizationError(f"weights sum to {w.sum()}, expected 1 within 1e-12")
        return cls(space, weights=w)

    @classmethod
    def uniform(cls, space: FiniteSpace) -> "Measure":
        return cls.from_weights(space, np.full(space.n, 1.0 / space.n))

    @classmethod
    def point_mass(cls, space: FiniteSpace, i: int) -> "Measure":
        w = np.zeros(space.n)
        w[i] = 1.0
        return cls.from_weights(space, w)

    @classmethod
    def haar_measure(cls, space: CircleSpace) -> "Measure":
        return cls(space, haar=True)

    def full_support(self) -> bool:
        return self.haar or bool(np.all(self.weights > 0))


def integrate(mu: Measure, phi: Observable):
    """integral of phi against mu: a weighted sum, or the 0th Fourier coefficient."""
    _check_same(mu.space, phi.space)
    if mu.haar:
        j = -phi.offset
        return complex(phi.coeffs[j]) if 0 <= j < phi.coeffs.size else 0.0
    val = np.dot(mu.weights, phi.values)
    return complex(val) if np.iscomplexobj(phi.values) else float(val)


def inner_product(mu: Measure, phi: Observable, psi: Observable):
    """<phi, psi>_mu = integral of phi * conj(psi)."""
    return integrate(mu, phi * psi.conj())


def compose_with_endo(phi: Observable) -> Observable:
    """phi o r.  On the circle this doubles every Fourier index."""
    space = phi.space
    if isinstance(space, CircleSpace):
        return Observable.from_coeffs(space, doubled(phi.coeffs), 2 * phi.offset)
    if space.endo is None:
        raise NoEndomorphismError("space has no endomorphism")
    return Observable.from_values(space, phi.values[np.asarray(space.endo)])


def fiber_average(phi: Observable) -> Observable:
    """x -> (1 / #r^{-1}(x)) sum_{r(y)=x} phi(y).

    On the circle (doubling map) this keeps even coefficients, halving their
    index; on a finite space the (bijective) fibers are singletons.
    """
    space = phi.space
    if isinstance(space, CircleSpace):
        start = phi.offset % 2  # position of the first even index
        return Observable.from_coeffs(space, phi.coeffs[start::2], (phi.offset + start) // 2)
    out = np.empty(space.n, dtype=phi.values.dtype)
    for i in range(space.n):
        fib = space.fiber(i)
        out[i] = sum(phi.values[j] for j in fib) / len(fib)
    return Observable.from_values(space, out)


def default_test_basis(space: Space) -> list[Observable]:
    """State indicators (finite) or all characters within the degree bound (circle)."""
    if isinstance(space, CircleSpace):
        return [Observable.character(space, n) for n in range(-space.degree, space.degree + 1)]
    return [Observable.indicator(space, i) for i in range(space.n)]


def strong_invariance_check(
    mu: Measure, space: Space | None = None, basis: Iterable[Observable] | None = None
) -> float:
    """Max over the test basis of |int phi dmu - int fiber_average(phi) dmu|.

    Zero certifies strong invariance of mu with respect to the endomorphism.
    """
    space = space or mu.space
    _check_same(mu.space, space)
    if isinstance(space, FiniteSpace) and space.endo is None:
        raise NoEndomorphismError("strong invariance requires an endomorphism")
    basis = basis if basis is not None else default_test_basis(space)
    res = 0.0
    for phi in basis:
        res = max(res, abs(integrate(mu, phi) - integrate(mu, fiber_average(phi))))
    return res
