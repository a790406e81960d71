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

    # a path array (``PathEnsemble.paths``) holds state indices, which are their own exact and evaluable points
    denominator = staticmethod(lambda root, depth: 1)
    points = coordinates = staticmethod(lambda paths, den: paths)

    def incompatible_paths(self, paths, den: int) -> int:
        """Transitions x_k -> x_{k+1} with r(x_{k+1}) != x_k in rows of state indices (den is 1 here)."""
        return int(np.count_nonzero(self.forward(paths[:, 1:]) != paths[:, :-1]))


@dataclass(frozen=True)
class CircleSpace:
    """The circle under z -> z^2, with trig polynomials of degree <= degree.

    Points are exact angles t in [0, 1), standing for e^{2 pi i t}.  Two
    circle carriers are the same carrier exactly when their degrees agree.
    """

    degree: int = DEFAULT_DEGREE

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")

    @property
    def grid(self) -> int:
        """Points of the uniform grid of the weight positivity check."""
        return max(8 * self.degree, 16)

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
    def preimages(t) -> np.ndarray:
        """The two square roots (t / 2, (t + 1) / 2) of e^{2 pi i t} for exact angles t in [0, 1),
        elementwise: a pair for an angle, an (m, 2) array for m angles."""
        return np.stack([t / 2, (t + 1) / 2], axis=-1)

    def compose_with_endo(self, phi: "Observable") -> "Observable":
        """Index doubling: the stride-2 scatter."""
        return Observable._trusted(self, doubled(phi.coeffs), 2 * phi.offset)

    def fiber_average(self, phi: "Observable") -> "Observable":
        """Keep the even coefficients, halving their index: the stride-2 gather."""
        return Observable._trusted(self, *even_gather(phi.coeffs, phi.offset))

    def default_test_basis(self) -> list["Observable"]:
        """All characters within the degree bound."""
        return [Observable.character(self, n) for n in range(-self.degree, self.degree + 1)]

    @staticmethod
    def strong_invariance_residual(mu: "Measure") -> float:
        """0.0 by construction: Haar is the only circle measure, and on e_n it is delta_n0 - delta_n0."""
        return 0.0

    def random_observable(self, rng, max_degree: int = 8) -> "Observable":
        """Coefficients c_n = a_n + i b_n for |n| <= d, from the normals a_-d, b_-d, ..., a_d, b_d in that order."""
        d = min(max_degree, self.degree // 8) or 1
        return Observable.from_coeffs(self, rng.standard_normal((2 * d + 1, 2)).view(complex)[:, 0], -d)

    @staticmethod
    def denominator(root: Fraction, depth: int) -> int:
        """D = q 2^(depth - 1) for the root p/q: the paths (``PathEnsemble.paths``) are numerators over D."""
        return root.denominator << (depth - 1)

    @staticmethod
    def points(paths, den: int) -> np.ndarray:
        """The exact angles N / den of an integer array: an object array with one Fraction per distinct N."""
        u, inv = np.unique(paths, return_inverse=True)
        return np.fromiter((Fraction(n, den) for n in u.tolist()), object, u.size)[inv].reshape(np.shape(paths))

    @staticmethod
    def coordinates(paths, den: int):
        """The floats N / den, each float(Fraction(N, den)): both divisions round correctly (README.md)."""
        return paths / den

    @staticmethod
    def incompatible_paths(paths, den: int) -> int:
        """Transitions x_k -> x_{k+1} with 2 x_{k+1} != x_k (mod 1) in rows of angles paths / den over one
        denominator: those where den does not divide 2 N_{k+1} - N_k.  Exact on int64 while den < 2^53 (then
        |2 N_{k+1} - N_k| < 2^54), and on Python ints beyond."""
        return int(np.count_nonzero((2 * paths[:, 1:] - paths[:, :-1]) % den))


Space = Union[FiniteSpace, CircleSpace]


def _check_same(a: Space, b: Space) -> None:
    if a is not b and a != b:
        raise CarrierMismatchError(f"carriers differ: {a!r} vs {b!r}")


def _require(space, carrier: type, what: str) -> None:
    """Refuse a space that is not of the given carrier type."""
    if not isinstance(space, carrier):
        raise CarrierMismatchError(f"{what} needs a {carrier.__name__}, not {type(space).__name__}")


def worst(residuals) -> float:
    """The largest of a sequence or array of real residuals: 0.0 when there are none, NaN when any is NaN.

    Every residual battery folds through this one max: Python's ``max(0.0, nan)`` reads 0.0, which would
    let a tolerance test pass on a NaN term.
    """
    return float(np.max(np.asarray(residuals, dtype=float), initial=0.0))


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


def autocorrelation(coeffs: np.ndarray) -> np.ndarray:
    """sum_n c_n conj(c_{n - lag}) at entry lag + size - 1 for |lag| < size: the coefficients of |m|^2, added
    over the nonzero entries in index order of n, so the bits do not depend on how the taps were given."""
    taps = [(n, c) for n, c in enumerate(coeffs.tolist()) if c != 0]
    out = [0j] * max(2 * coeffs.size - 1, 0)
    for n, a in taps:
        for k, b in taps:
            out[n - k + coeffs.size - 1] += a * b.conjugate()
    return np.array(out, dtype=complex)


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
    points, so memory stays O(points) at any degree.  A point is evaluated as a
    one-entry array: numpy rounds scalar and array products differently, and a
    point must get the bits it gets inside an array.
    """
    z = np.asarray(z)
    pts = np.atleast_1d(z)
    acc = 0j
    for c in reversed(coeffs.tolist()):
        acc = acc * pts + c
    return (acc * pts**offset).reshape(z.shape)[()]


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
        if arr.dtype.kind not in "iufc":  # a bool array would add as a logical or, an object one as Python objects
            raise ValueError(f"values must be numbers, not dtype {arr.dtype}")
        return cls(space, values=arr)

    @classmethod
    def from_coeffs(cls, space: CircleSpace, coeffs, offset: int = 0) -> "Observable":
        """coeffs[j] is the coefficient of z^(offset + j); the array is trimmed, not copied."""
        _require(space, CircleSpace, "a Fourier observable")
        return cls._trusted(space, np.asarray(coeffs, dtype=complex), offset)

    @classmethod
    def _trusted(cls, space: CircleSpace, c: np.ndarray, offset: int) -> "Observable":
        """``from_coeffs`` on the algebra's own outputs, a 1-d complex array on a circle carrier, unchecked.

        The zero ends are still trimmed (a product of trimmed arrays gains one when an end underflows) and a
        degree past the bound is still refused.
        """
        if not (c.size and c[0] and c[-1]):
            nz = np.flatnonzero(c)
            c, offset = (c[nz[0] : nz[-1] + 1], offset + int(nz[0])) if nz.size else (c[:0], 0)
        degree = max(-offset, offset + c.size - 1)
        if degree > space.degree:
            raise DegreeOverflowError(f"coefficient index {degree} exceeds the degree bound {space.degree}")
        return cls(space, None, c, offset)

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
        """Evaluate at a point, or elementwise on an array of points: state indices (finite), or angles
        or unit-modulus complex numbers (circle) by ``horner``; a scalar in gives a scalar out."""
        if self.values is not None:
            return self.values[x]
        z = x if np.iscomplexobj(x) else np.exp(2j * np.pi * np.asarray(x, dtype=float))
        return horner(self.coeffs, self.offset, z)

    # -- algebra -----------------------------------------------------------

    def _like(self, other: "Observable") -> None:
        if not isinstance(other, Observable):
            raise TypeError("expected an Observable")
        _check_same(self.space, other.space)

    def _aligned(self, other: "Observable", op) -> "Observable":
        """self op other for op np.add or np.subtract: on the values, or into one array aligned at the lower offset."""
        self._like(other)
        if self.values is not None:
            return Observable.from_values(self.space, op(self.values, other.values))
        low = min(self.offset, other.offset)
        out = np.zeros(max(p.offset + p.coeffs.size for p in (self, other)) - low, dtype=complex)
        for p, f in ((self, np.add), (other, op)):
            part = out[p.offset - low : p.offset - low + p.coeffs.size]
            f(part, p.coeffs, out=part)
        return Observable._trusted(self.space, out, low)

    def __add__(self, other: "Observable") -> "Observable":
        return self._aligned(other, np.add)

    def __sub__(self, other: "Observable") -> "Observable":
        return self._aligned(other, np.subtract)

    def __mul__(self, other):
        if not isinstance(other, Observable):
            if self.values is not None:
                return Observable.from_values(self.space, self.values * other)
            return Observable.from_coeffs(self.space, self.coeffs * other, self.offset)
        self._like(other)
        if self.values is not None:
            return Observable.from_values(self.space, self.values * other.values)
        return Observable._trusted(self.space, convolve(self.coeffs, other.coeffs), self.offset + other.offset)

    __rmul__ = __mul__

    def conj(self) -> "Observable":
        if self.values is not None:
            return Observable.from_values(self.space, np.conj(self.values))
        return Observable._trusted(self.space, self.coeffs[::-1].conj(), -(self.offset + self.coeffs.size - 1))

    def coeff_norm(self) -> float:
        """Max absolute Fourier coefficient (circle); max abs value (finite)."""
        return worst(np.abs(self.coeffs if self.values is None else self.values))

    def on(self, space: Space) -> "Observable":
        """The same function on another carrier of its kind, such as a circle of a higher degree bound."""
        if self.values is not None:
            return Observable.from_values(space, self.values)
        return Observable.from_coeffs(space, self.coeffs, self.offset)


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
        if not abs(float(w.sum()) - 1.0) <= 1e-12:  # written so that a NaN weight fails
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
