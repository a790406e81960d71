"""Positive unital operators R on C(B).

Finite carriers use a row-stochastic matrix, (R phi)(x) = sum_y K[x,y] phi(y).
The circle carrier uses a Ruelle operator for the doubling map with a
trig-polynomial weight W (typically |m0|^2 / 2 for a filter m0):

    (R phi)(z) = sum_{u^2 = z} W(u) phi(u),

realized exactly on Fourier coefficients as (R phi)_k = 2 (W * phi)_{2k},
where * is coefficient convolution.  Unitality R1 = 1 and positivity are
validated at construction.
"""

from __future__ import annotations

import functools
import hashlib
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import ConvergenceError, NormalizationError, ReducibleChainWarning
from .rng import chunk_sizes, chunk_stream
from .statespace import (
    CircleSpace,
    FiniteSpace,
    Measure,
    Observable,
    angle_point,
    coeffs_at,
    compose_with_endo,
    convolve,
    dense_coeffs,
    doubled,
    even_gather,
    horner,
    inner_product,
    sparse_coeffs,
    _check_same,
    _require,
)

UNITALITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10
CERTIFICATE_C = 16  # finite invariant measures: residual <= c n eps + row-sum error


class TransferOperator:
    """Common interface: apply and powers, plus what each carrier does its own way: adjoint_apply,
    invariant_measure, stationarity_residual, support_mass, absorbing_states and walk."""

    def apply(self, phi: Observable) -> Observable:
        raise NotImplementedError

    def apply_power(self, phi: Observable, k: int) -> Observable:
        if k < 0:
            raise ValueError("k must be >= 0")
        out = phi
        for _ in range(k):
            out = self.apply(out)
        return out

    def fingerprint(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class MatrixOperator(TransferOperator):
    space: FiniteSpace
    kernel: np.ndarray

    def __post_init__(self):
        _require(self.space, FiniteSpace, "a matrix operator")
        k = np.asarray(self.kernel, dtype=float)
        if k.shape != (self.space.n, self.space.n):
            raise ValueError("kernel must be square and match the state count")
        if np.any(k < 0):
            raise NormalizationError("kernel entries must be nonnegative")
        rows = k.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > UNITALITY_TOL:
            raise NormalizationError("rows must sum to 1 within 1e-12 (R1 = 1)")
        object.__setattr__(self, "kernel", k)

    def apply(self, phi: Observable) -> Observable:
        _check_same(self.space, phi.space)
        return Observable.from_values(self.space, self.kernel @ phi.values)

    def fingerprint(self) -> str:
        h = hashlib.sha256(np.ascontiguousarray(self.kernel))
        return "matrix:" + h.hexdigest()[:16]

    def adjoint_apply(self, mu: Measure, psi: Observable) -> Observable:
        """(R* psi)(y) = sum_x mu(x) K[x,y] psi(x) / mu(y), requiring full support."""
        if not mu.full_support():
            raise ValueError("adjoint undefined at zero-mass states: mu must have full support")
        vals = (self.kernel.T @ (mu.weights * psi.values)) / mu.weights
        return Observable.from_values(self.space, vals)

    def invariant_measure(self) -> Measure:
        """See ``invariant_measure``: one bordered solve on the first closed class, certified.

        The certificate bounds the backward error |mu K - mu|, not the distance to the stationary law.
        """
        k = self.kernel
        c, *others = _closed_classes(k)
        if others:
            msg = "the chain has more than one closed class; returning one fixed point"
            warnings.warn(msg, ReducibleChainWarning)
        # sum(w) = 1 replaces the last equation of a w = 0 and eliminates w[-1]: with m - 1 unknowns an
        # OpenBLAS solve stays on one thread up to 100 states (two threads can stall ~0.1 s on a busy host)
        a = k[np.ix_(c, c)].T - np.eye(len(c))
        col = a[:-1, -1]
        try:
            x = np.linalg.solve(a[:-1, :-1] - col[:, None], -col)
        except np.linalg.LinAlgError as exc:  # e.g. K[x, x] = 1 - 1e-18 rounds to 1 on two states
            raise ConvergenceError(f"the bordered system is singular in floating point: {exc}") from exc
        w = np.zeros(self.space.n)
        w[c] = np.clip(np.r_[x, 1.0 - x.sum()], 0.0, None)
        mu = Measure.from_weights(self.space, w / w.sum())
        res = self.stationarity_residual(mu)
        bound = CERTIFICATE_C * len(k) * np.finfo(float).eps + np.max(np.abs(k.sum(axis=1) - 1.0))
        if not res <= bound:
            raise ConvergenceError(f"stationarity residual {res} exceeds the certificate bound {bound}")
        return mu

    def stationarity_residual(self, mu: Measure) -> float:
        """max_y |(mu K - mu)_y|: the sup over the state indicators, in one product."""
        return float(np.max(np.abs(mu.weights @ self.kernel - mu.weights)))

    def support_mass(self, x, n: int) -> float:
        """The mass that survives n - 1 steps along r: each step goes from r(y) to y only."""
        idx = np.arange(self.space.n)
        back = self.space.forward(idx)
        mass = np.zeros(self.space.n)
        mass[self.space.point(x)] = 1.0
        for _ in range(n - 1):
            mass = mass[back] * self.kernel[back, idx]
        return float(mass.sum())

    def absorbing_states(self) -> list[int]:
        """States x with K[x, x] = 1 within 1e-12."""
        return np.flatnonzero(np.isclose(np.diag(self.kernel), 1.0, atol=1e-12)).tolist()

    def walk(self, root, n: int, count: int, seed: int):
        """The walker of ``sample_paths``: the shared bisection step, vectorised across paths."""
        from .pathmeasure import PathEnsemble, _cdf_table, _next_states

        if not isinstance(root, Measure):
            root = self.space.point(root)
        table = _cdf_table(self.kernel)
        out = np.empty((count, n), dtype=np.intp)
        pos = 0
        for ci, size in enumerate(chunk_sizes(count)):
            rng = chunk_stream(seed, ci)
            if isinstance(root, Measure):
                x = rng.choice(self.space.n, size=size, p=root.weights)
            else:
                x = np.full(size, root, dtype=np.intp)
            out[pos : pos + size, 0] = x
            for step in range(1, n):
                x = _next_states(table, x, rng.random(size))
                out[pos : pos + size, step] = x
            pos += size
        return PathEnsemble(self.space, root, n, out, seed, self.fingerprint())


@dataclass(frozen=True, eq=False)
class CircleRuelleOperator(TransferOperator):
    """Ruelle operator for the doubling map with weight W = |m0|^2 / 2.

    ``weight`` holds the Fourier coefficients of W; ``m0`` (optional) those of
    the generating filter, needed for the adjoint formula.  ``apply`` and
    ``adjoint_apply`` convolve with a dense copy of W; the walk reads ``weight``.
    """

    space: CircleSpace
    weight: dict[int, complex]
    m0: dict[int, complex] | None = None

    def __post_init__(self):
        _require(self.space, CircleSpace, "a Ruelle operator with a trig-polynomial weight")
        w = {int(n): complex(c) for n, c in self.weight.items() if c != 0}
        object.__setattr__(self, "weight", w)
        dense, offset = dense_coeffs(w)
        # unitality: (R 1)_k = 2 W_{2k} must be the delta at 0, W_0 = 1/2 included
        for k, c in {0: 0j, **sparse_coeffs(*even_gather(dense, offset))}.items():
            if abs(c - (0.5 if k == 0 else 0.0)) > UNITALITY_TOL:
                raise NormalizationError(f"weight violates R1=1: coefficient W_{2 * k} = {c}")
        object.__setattr__(self, "_w", dense)
        object.__setattr__(self, "_w_offset", offset)
        grid = max(8 * self.space.degree, 16)
        vals = horner(dense, offset, np.exp(2j * np.pi * np.arange(grid) / grid))
        if np.max(np.abs(vals.imag)) > POSITIVITY_TOL or np.min(vals.real) < -POSITIVITY_TOL:
            raise NormalizationError("weight must be real and nonnegative on the grid")

    def apply(self, phi: Observable) -> Observable:
        """(R phi)_k = 2 (W * phi)_{2k}: one convolution, then every other entry."""
        _check_same(self.space, phi.space)
        g, k0 = even_gather(convolve(self._w, phi.coeffs), self._w_offset + phi.offset)
        return Observable.from_coeffs(self.space, 2 * g, k0)

    def weight_at(self, t) -> float:
        z = angle_point(t)
        return float(sum(c * z**n for n, c in self.weight.items()).real)

    def transition_weights(self, t: Fraction) -> tuple[tuple[Fraction, float], ...]:
        """Backward-branch angles u with u^2 = e^{2 pi i t} and their probabilities."""
        pre = CircleSpace.preimages(Fraction(t))
        w = [self.weight_at(u) for u in pre]
        total = sum(w)
        if abs(total - 1.0) > 1e-8:
            raise NormalizationError(f"transition weights sum to {total}, expected 1")
        return tuple((u, wi / total) for u, wi in zip(pre, w))

    def fingerprint(self) -> str:
        items = sorted((n, c.real, c.imag) for n, c in self.weight.items())
        h = hashlib.sha256(repr(items).encode())
        return "ruelle:" + h.hexdigest()[:16]

    def adjoint_apply(self, mu: Measure, psi: Observable) -> Observable:
        """(R* psi)(x) = |m0(x)|^2 psi(r(x)) in L^2(Haar), the only measure on the circle carrier."""
        if self.m0 is None:
            raise ValueError("circle adjoint requires the generating filter m0")
        prod = convolve(2 * self._w, doubled(psi.coeffs))  # |m0|^2 (psi o r)
        return Observable.from_coeffs(self.space, prod, self._w_offset + 2 * psi.offset)

    def invariant_measure(self) -> Measure:
        """Haar, exactly when it is invariant; see ``invariant_measure``."""
        # mu o R = mu on characters e_n reads 2 W_{-n} = delta_{n,0}
        for n, c in self.weight.items():
            if n != 0 and abs(c) > UNITALITY_TOL:
                raise ValueError(
                    "Haar is not invariant for this weight (W is not constant 1/2); "
                    "no trig-polynomial-representable invariant measure exists"
                )
        return Measure.haar_measure(self.space)

    def stationarity_residual(self, mu: Measure) -> float:
        """max over |n| <= degree of |int R(e_n) dHaar - int e_n dHaar| = |2 W_{-n} - delta_{n,0}|.

        The Haar integral of R(e_n) is its 0th coefficient, one product 2 W_{-n}; so this
        is the sweep over the characters of ``default_test_basis``, without building them.
        """
        d = self.space.degree
        gap = 2 * coeffs_at(self._w, self._w_offset, np.arange(d, -d - 1, -1))
        gap[d] -= 1.0
        return float(np.max(np.abs(gap)))

    def support_mass(self, x, n: int) -> float:
        """1.0 by construction: every backward branch is a preimage, and R1 = 1 was checked."""
        return 1.0

    def absorbing_states(self) -> list[int]:
        """No state absorbs: the backward walk on the circle never stops."""
        return []

    def walk(self, root, n: int, count: int, seed: int):
        """The walker of ``sample_paths``: from angle t to a square root of it, weighted by W.

        Paths are exact angles, stored row by row in an object array of Fractions.
        """
        from .pathmeasure import PathEnsemble

        if isinstance(root, Measure):
            raise ValueError("mu-rooted sampling is not supported on the circle carrier")
        t0 = self.space.point(root)
        branches = functools.cache(self.transition_weights)  # a walk revisits few angles
        out = np.empty((count, n), dtype=object)
        row = 0
        for ci, size in enumerate(chunk_sizes(count)):
            rng = chunk_stream(seed, ci)
            u = rng.random((size, max(n - 1, 1)))
            for i in range(size):
                path = [t0]
                t = t0
                for step in range(n - 1):
                    (u0, p0), (u1, _p1) = branches(t)
                    t = u0 if u[i, step] < p0 else u1
                    path.append(t)
                out[row] = np.fromiter(path, object, n)  # skips numpy's per-entry type discovery
                row += 1
        return PathEnsemble(self.space, t0, n, out, seed, self.fingerprint())


def matrix_operator(space: FiniteSpace, rows: Sequence[Sequence[float]]) -> MatrixOperator:
    return MatrixOperator(space, np.asarray(rows, dtype=float))


def ruelle_from_endo(space: FiniteSpace, W: Sequence[float] | None = None) -> MatrixOperator:
    """Ruelle operator (R phi)(x) = sum_{r(y)=x} W(y) phi(y) on a finite carrier.

    Fibers are singletons (finite onto maps are bijections), so W must be
    identically 1 and the operator is the permutation pullback by r^{-1}.
    """
    _require(space, FiniteSpace, "a Ruelle operator of an endomorphism")
    idx = np.arange(space.n)
    k = np.zeros((space.n, space.n))
    k[space.forward(idx), idx] = np.ones(space.n) if W is None else np.asarray(W, dtype=float)
    return MatrixOperator(space, k)


def ruelle_from_filter(
    space: CircleSpace, m0: Mapping[int, complex]
) -> CircleRuelleOperator:
    """Ruelle operator with QMF weight W = |m0|^2 / 2 from filter coefficients."""
    m = {int(n): complex(c) for n, c in m0.items() if c != 0}
    # W_{n-k} accumulates m_n conj(m_k) in this loop order: weight_at sums W in
    # dict order, and the sampled paths depend on the bits of its values
    acf: dict[int, complex] = {}
    for n, a in m.items():
        for k, b in m.items():
            acf[n - k] = acf.get(n - k, 0) + a * b.conjugate()
    weight = {n: c / 2 for n, c in acf.items() if c != 0}
    return CircleRuelleOperator(space, weight, m0=m)


def uniform_circle_operator(space: CircleSpace) -> CircleRuelleOperator:
    """The fiber-average operator, weight W = 1/2 (group case, N = 2)."""
    return CircleRuelleOperator(space, {0: 0.5}, m0={0: 1.0})


@dataclass(frozen=True, eq=False)
class IntegralKernel:
    """Grid kernel K(x_i, y_j) >= 0 with quadrature measure mu on the grid."""

    space: FiniteSpace
    values: np.ndarray
    mu: Measure

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.n, self.space.n):
            raise ValueError("kernel grid must be square and match the state count")
        if np.any(v < 0):
            raise NormalizationError("kernel values must be nonnegative")
        _check_same(self.space, self.mu.space)
        rows = v @ self.mu.weights
        if np.max(np.abs(rows - 1.0)) > 1e-10:
            raise NormalizationError(
                "integral of K(x, .) against mu must be 1 for every grid x"
            )
        object.__setattr__(self, "values", v)


def kernel_operator(kernel: IntegralKernel) -> MatrixOperator:
    """Discretize R_K f(x) = int K(x,y) f(y) dmu(y) as a stochastic matrix."""
    return MatrixOperator(kernel.space, kernel.values * kernel.mu.weights[None, :])


def adjoint_apply(R: TransferOperator, mu: Measure, psi: Observable) -> Observable:
    """R* in L^2(B, mu): <R phi, psi>_mu = <phi, R* psi>_mu.

    Finite case: (R* psi)(y) = sum_x mu(x) K[x,y] psi(x) / mu(y), requiring
    full support.  Circle case (mu = Haar, filter-built R):
    (R* psi)(x) = |m0(x)|^2 psi(r(x)).
    """
    _check_same(R.space, psi.space)
    _check_same(R.space, mu.space)
    return R.adjoint_apply(mu, psi)


def _closed_classes(kernel: np.ndarray) -> list[np.ndarray]:
    """The closed communicating classes of the chain on the support of the kernel.

    Tarjan's strongly connected components on the graph {(x, y): K[x, y] > 0},
    iterative and O(states + edges); a component is closed when no edge leaves it.
    Each class is an increasing index array; the classes are ordered by their smallest state.
    """
    n = len(kernel)
    rows, cols = np.nonzero(kernel > 0)
    start = np.searchsorted(rows, np.arange(n + 1)).tolist()
    succ = cols.tolist()
    index = [0] * n  # discovery number, 0 while unvisited
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = ncomp = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [[root, start[root]]]
        while work:
            frame = work[-1]
            v, e = frame
            if e < start[v + 1]:
                frame[1] = e + 1
                w = succ[e]
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append([w, start[w]])
                elif comp[w] < 0:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:  # v and the states above it on the stack form one component
                while comp[v] < 0:
                    comp[stack.pop()] = ncomp
                ncomp += 1
    label = np.array(comp)
    leaving = label[rows] != label[cols]
    closed = np.setdiff1d(np.arange(ncomp), label[rows[leaving]])
    return sorted((np.flatnonzero(label == c) for c in closed), key=lambda c: c[0])


def invariant_measure(R: TransferOperator) -> Measure:
    """A probability measure with mu o R = mu.

    Finite carriers: one direct solve on the first closed class in state order, bordered with
    sum(mu) = 1, at every size and period; other states get weight 0, and a ReducibleChainWarning
    is emitted when there is more than one closed class (the fixed point is then not unique).
    The result is certified: its ``stationarity_residual`` is at most CERTIFICATE_C n eps plus
    the largest row-sum error of the kernel, or ConvergenceError is raised.  The certificate
    bounds the backward error |mu K - mu|, not the distance to the stationary law: for
    K = [[1, 1e-18], [1e-18, 1]] it certifies (1, 0) with residual 1e-18, although the law is (1/2, 1/2).
    On the circle, Haar is returned exactly when the invariance identity
    holds on the character basis (which forces the uniform weight W = 1/2);
    otherwise no representable invariant measure exists and a ValueError is
    raised.
    """
    return R.invariant_measure()


def stationarity_residual(R: TransferOperator, mu: Measure) -> float:
    """Max over ``default_test_basis`` of |int R(phi) dmu - int phi dmu|, in closed form on both carriers."""
    _check_same(R.space, mu.space)
    return R.stationarity_residual(mu)


def pullout_check(R: TransferOperator, n_pairs: int = 20, seed: int = 7) -> float:
    """Max residual of R((phi o r) psi) = phi R(psi) over a seeded random battery.

    Zero certifies the pull-out axiom tying R to the endomorphism.
    """
    rng = np.random.default_rng(seed)
    res = 0.0
    for _ in range(n_pairs):
        phi = R.space.random_observable(rng)
        psi = R.space.random_observable(rng)
        lhs = R.apply(compose_with_endo(phi) * psi)
        rhs = phi * R.apply(psi)
        res = max(res, (lhs - rhs).coeff_norm())
    return res


def composition_isometry_residual(
    m0: Mapping[int, complex],
    space: CircleSpace,
    n_funcs: int = 20,
    seed: int = 11,
) -> float:
    """Max over a battery of | ||m0 (f o r)||^2 - ||f||^2 | in L^2(Haar).

    Zero iff the operator built from |m0|^2 is unital (QMF condition).
    """
    mu = Measure.haar_measure(space)
    m = Observable.from_fourier(space, m0)
    rng = np.random.default_rng(seed)
    res = 0.0
    for _ in range(n_funcs):
        f = space.random_observable(rng, max_degree=min(8, space.degree // 4))
        g = m * compose_with_endo(f)
        res = max(res, abs(inner_product(mu, g, g) - inner_product(mu, f, f)))
    return res
