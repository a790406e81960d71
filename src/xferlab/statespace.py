"""Carriers for the base space: finite state sets and the circle.

Two carriers are supported, and each owns the logic specific to it (README.md,
"Carriers").  ``FiniteSpace`` is an ordered finite set of labelled states,
optionally equipped with an onto self-map (which on a finite set is
necessarily a bijection, so genuine N-to-1 dynamics live on the circle).
``CircleSpace`` is the unit circle under the doubling map, with the function
algebra truncated to Laurent polynomials of a fixed maximal degree; anything
that would leave the truncation raises ``DegreeOverflowError``
instead of silently truncating.
A circle observable is a dense coefficient array plus the index of its first
entry; README.md says which identities on it are exact in floating point.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    CarrierMismatchError,
    DegreeOverflowError,
    NoEndomorphismError,
    NormalizationError,
)

DEFAULT_DEGREE = 64
DEFAULT_GRID = 1024

#: Exact cylinder computations on finite carriers are capped at this depth;
#: cost per word is linear in depth but word batteries grow combinatorially.
MAX_EXACT_DEPTH = 12


@dataclass(frozen=True)
class FiniteSpace:
    """Finite carrier: ordered state labels plus an optional endomorphism.

    ``endo[i]`` is the index of r(states[i]).  The map must be onto; on a
    finite set that forces it to be a bijection, so every fiber is a
    singleton.
    """

    states: tuple
    endo: tuple | None = None

    max_exact_depth = MAX_EXACT_DEPTH

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

    def point(self, v) -> int:
        """A state index from an index in range or a state label (a string); nothing is coerced."""
        if isinstance(v, str) and v in self.states:
            return self.states.index(v)
        if isinstance(v, numbers.Integral) and not isinstance(v, bool) and 0 <= v < self.n:
            return int(v)
        raise ValueError(f"a point is a state index in [0, {self.n}) or a state label, not {v!r}")

    def label(self, x) -> str:
        """The CSV cell of a state index."""
        return self.states[x]

    def forward(self, x):
        """The endomorphism r on a state index or an array of them."""
        if self.endo is None:
            raise NoEndomorphismError("space has no endomorphism")
        return np.asarray(self.endo)[x]

    def fiber(self, i: int) -> tuple[int, ...]:
        """Inverse image r^{-1}(states[i]) as a tuple of indices."""
        return tuple(np.flatnonzero(self.forward(np.arange(self.n)) == i).tolist())

    def compose_with_endo(self, phi: "Observable") -> "Observable":
        return Observable.from_values(self, phi.values[self.forward(np.arange(self.n))])

    def fiber_average(self, phi: "Observable") -> "Observable":
        """The fibers are singletons, so the average is a gather by the inverse permutation."""
        idx = np.arange(self.n)
        inverse = np.empty_like(idx)
        inverse[self.forward(idx)] = idx
        return Observable.from_values(self, phi.values[inverse])

    def default_test_basis(self) -> list["Observable"]:
        """The state indicators."""
        return [Observable.indicator(self, i) for i in range(self.n)]

    def strong_invariance_residual(self, mu: "Measure") -> float:
        """max_x |mu(x) - mu(r(x))|: on the indicator of x the fiber average integrates to mu(r(x))."""
        w = mu.weights
        return float(np.max(np.abs(w - w[self.forward(np.arange(self.n))])))

    def random_observable(self, rng, max_degree: int = 8) -> "Observable":
        return Observable.from_values(self, rng.standard_normal(self.n))

    def incompatible_transitions(self, words) -> int:
        """Transitions x_k -> x_{k+1} with r(x_{k+1}) != x_k in equal-length words of indices."""
        x = np.asarray(words)
        return int(np.count_nonzero(self.forward(x[:, 1:]) != x[:, :-1]))


@dataclass(frozen=True)
class CircleSpace:
    """The circle under z -> z^2, with trig polynomials of degree <= degree.

    ``grid`` is the uniform evaluation grid used for sampling and pointwise
    (non-exact) checks; it plays no role in the coefficient algebra.
    Points are exact angles t in [0, 1), standing for e^{2 pi i t}.
    """

    degree: int = DEFAULT_DEGREE
    grid: int = DEFAULT_GRID

    max_exact_depth = math.inf

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")

    @staticmethod
    def point(v) -> Fraction:
        """Exact angle mod 1 from an integer, a Fraction, an integral float, or a "p/q" string.

        Any other value is refused: a float such as 0.1 would otherwise become its
        binary expansion, a fraction with denominator 2^55.
        """
        if isinstance(v, str):
            try:
                return Fraction(v) % 1
            except (ValueError, ZeroDivisionError):
                pass
        elif not isinstance(v, bool) and (isinstance(v, numbers.Rational) or isinstance(v, float) and v.is_integer()):
            return Fraction(v) % 1
        raise ValueError(f'an angle must be an integer or a "p/q" string, not {v!r}')

    label = staticmethod(str)  # the CSV cell of an angle: "p/q"

    @staticmethod
    def forward(t):
        """The doubling map on angles, r(t) = 2t mod 1 (also elementwise on arrays)."""
        return (2 * t) % 1

    @staticmethod
    def preimages(t: Fraction) -> tuple[Fraction, Fraction]:
        """The two square roots of e^{2 pi i t}, as exact angles."""
        t = Fraction(t) % 1
        return (t / 2, (t + 1) / 2)

    def compose_with_endo(self, phi: "Observable") -> "Observable":
        """Index doubling: the stride-2 scatter."""
        return Observable.from_coeffs(self, doubled(phi.coeffs), 2 * phi.offset)

    def fiber_average(self, phi: "Observable") -> "Observable":
        """Keep the even coefficients, halving their index: the stride-2 gather."""
        return Observable.from_coeffs(self, *even_gather(phi.coeffs, phi.offset))

    def default_test_basis(self) -> list["Observable"]:
        """All characters within the degree bound."""
        return [Observable.character(self, n) for n in range(-self.degree, self.degree + 1)]

    @staticmethod
    def strong_invariance_residual(mu: "Measure") -> float:
        """0.0 by construction: Haar is the only circle measure, and on e_n it is delta_n0 - delta_n0."""
        return 0.0

    def random_observable(self, rng, max_degree: int = 8) -> "Observable":
        d = min(max_degree, self.degree // 8) or 1
        coeffs = {n: complex(rng.standard_normal(), rng.standard_normal()) for n in range(-d, d + 1)}
        return Observable.from_fourier(self, coeffs)

    @staticmethod
    def incompatible_transitions(words) -> int:
        """Transitions x_k -> x_{k+1} with 2 x_{k+1} != x_k (mod 1) in equal-length angle words.

        With x_{k+1} = a/b and x_k = c/d in [0, 1), 2a/b = c/d (mod 1) iff
        (2ad - cb) mod bd = 0.  Every product is below 2bd, so int64 holds it
        while each denominator is below 2^31; beyond, the test runs on Python ints.
        """
        x = np.asarray(words, dtype=object)
        if not x.size:
            return 0
        try:
            den = np.fromiter((t.denominator for t in x.flat), np.int64, x.size)
        except OverflowError:  # a denominator of 2^63 or more
            den = np.fromiter((t.denominator for t in x.flat), object, x.size)
        if den.max() >= 2**31:
            den = den.astype(object)
        num = np.fromiter((t.numerator for t in x.flat), den.dtype, x.size)
        num, den = num.reshape(x.shape), den.reshape(x.shape)
        a, b, c, d = num[:, 1:], den[:, 1:], num[:, :-1], den[:, :-1]
        return int(np.count_nonzero((2 * a * d - c * b) % (b * d)))


Space = Union[FiniteSpace, CircleSpace]


def angle_point(t: Fraction | float) -> complex:
    """e^{2 pi i t}."""
    return cmath.exp(2j * cmath.pi * float(t))


def _check_same(a: Space, b: Space) -> None:
    if a != b:
        raise CarrierMismatchError(f"carriers differ: {a!r} vs {b!r}")


def _require(space, carrier: type, what: str) -> None:
    """Refuse a space that is not of the given carrier type."""
    if not isinstance(space, carrier):
        raise CarrierMismatchError(f"{what} needs a {carrier.__name__}, not {type(space).__name__}")


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


def sparse_coeffs(coeffs: np.ndarray, offset: int) -> dict[int, complex]:
    """The nonzero entries of a dense array as a map index -> coefficient (inverse of ``dense_coeffs``)."""
    nz = np.flatnonzero(coeffs)
    return dict(zip((nz + offset).tolist(), coeffs[nz].tolist()))


def coeffs_at(coeffs: np.ndarray, offset: int, idx) -> np.ndarray:
    """The coefficients of a dense array at an array of indices, 0 outside its range."""
    pos = np.asarray(idx) - offset
    inside = (pos >= 0) & (pos < coeffs.size)
    out = np.zeros(pos.shape, dtype=complex)
    out[inside] = coeffs[pos[inside]]
    return out


def even_gather(coeffs: np.ndarray, offset: int) -> tuple[np.ndarray, int]:
    """The entries at even indices 2k of a dense array, as a dense array in k and its first index."""
    start = offset % 2  # position of the first even index
    return coeffs[start::2], (offset + start) // 2


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
        _require(space, FiniteSpace, "a 'values' observable")
        arr = np.asarray(values)
        if arr.shape != (space.n,):
            raise ValueError("value vector length must match the state count")
        return cls(space, values=arr)

    @classmethod
    def from_coeffs(cls, space: CircleSpace, coeffs, offset: int = 0) -> "Observable":
        """coeffs[j] is the coefficient of z^(offset + j); the array is trimmed, not copied."""
        _require(space, CircleSpace, "a Fourier observable")
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
    def indicator(cls, space: FiniteSpace, i) -> "Observable":
        v = np.zeros(space.n)
        v[space.point(i)] = 1.0
        return cls.from_values(space, v)

    # -- basic queries -----------------------------------------------------

    @property
    def fourier(self) -> dict[int, complex] | None:
        """The nonzero coefficients n -> c_n (circle), derived from the array; None on finite carriers."""
        return None if self.coeffs is None else sparse_coeffs(self.coeffs, self.offset)

    @property
    def degree(self) -> int:
        if self.coeffs is None:
            raise TypeError("degree is only defined on the circle carrier")
        return max(-self.offset, self.offset + self.coeffs.size - 1, 0)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Evaluate at a point, or elementwise on an array of points: state indices
        (finite), or angles or unit-modulus complex numbers (circle)."""
        if self.values is not None:
            return self.values[x]
        if isinstance(x, np.ndarray):
            z = x if np.iscomplexobj(x) else np.exp(2j * np.pi * x.astype(float))
        else:
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
        _require(space, FiniteSpace, "a weighted measure")
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
        _require(space, FiniteSpace, "a uniform measure")
        return cls.from_weights(space, np.full(space.n, 1.0 / space.n))

    @classmethod
    def point_mass(cls, space: FiniteSpace, i) -> "Measure":
        _require(space, FiniteSpace, "a point mass")
        w = np.zeros(space.n)
        w[space.point(i)] = 1.0
        return cls.from_weights(space, w)

    @classmethod
    def haar_measure(cls, space: CircleSpace) -> "Measure":
        _require(space, CircleSpace, "the Haar measure")
        return cls(space, haar=True)

    def full_support(self) -> bool:
        return self.haar or bool(np.all(self.weights > 0))

    def integrate(self, phi: Observable):
        """integral of phi: a weighted sum, or the 0th Fourier coefficient (Haar)."""
        _check_same(self.space, phi.space)
        if self.haar:
            j = -phi.offset
            return complex(phi.coeffs[j]) if 0 <= j < phi.coeffs.size else 0.0
        val = np.dot(self.weights, phi.values)
        return complex(val) if np.iscomplexobj(phi.values) else float(val)

    def report(self) -> dict:
        """The report fields of the measure: its weights, or none for Haar."""
        return {} if self.haar else {"measure_weights": list(self.weights)}


def integrate(mu: Measure, phi: Observable):
    """integral of phi against mu."""
    return mu.integrate(phi)


def inner_product(mu: Measure, phi: Observable, psi: Observable):
    """<phi, psi>_mu = integral of phi * conj(psi)."""
    return integrate(mu, phi * psi.conj())


def compose_with_endo(phi: Observable) -> Observable:
    """phi o r.  On the circle this doubles every Fourier index."""
    return phi.space.compose_with_endo(phi)


def fiber_average(phi: Observable) -> Observable:
    """x -> (1 / #r^{-1}(x)) sum_{r(y)=x} phi(y)."""
    return phi.space.fiber_average(phi)


def strong_invariance_check(mu: Measure) -> float:
    """Max over ``default_test_basis`` of |int phi dmu - int fiber_average(phi) dmu|, in closed form.

    Zero certifies strong invariance of mu with respect to the endomorphism.
    """
    return mu.space.strong_invariance_residual(mu)
