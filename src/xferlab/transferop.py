"""Positive unital operators R on C(B).

Finite carriers use a row-stochastic matrix, (R phi)(x) = sum_y K[x,y] phi(y).
The circle carrier uses a Ruelle operator for the doubling map with a
trig-polynomial weight W (typically |m0|^2 / 2 for a filter m0):

    (R phi)(z) = sum_{u^2 = z} W(u) phi(u),

realized exactly on Fourier coefficients as (R phi)_k = 2 (W * phi)_{2k},
where * is coefficient convolution.  Unitality R1 = 1 and positivity are
validated at construction.  Both finite walkers, ``MatrixOperator.walk`` and
``simulate_absorbing``, live here with the one guided inverse-CDF step and the one table they share;
``simulate_absorbing`` has one caller, ``pathmeasure.hitting``.  A ``MatrixOperator``
keeps its kernel read-only, so its fixed facts (fingerprint, sampling table, closed
classes) are computed on first use and kept.
"""

from __future__ import annotations

import copy
import hashlib
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import ConvergenceError, NormalizationError, ReducibleChainWarning
from .rng import chunks
from .statespace import (
    CircleSpace,
    FiniteSpace,
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
    inner_product,
    sparse_coeffs,
    worst,
    _check_same,
    _require,
)

UNITALITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10
CERTIFICATE_C = 16  # finite invariant measures: residual <= c n eps + row-sum error
STEP_CAP = 10**6  # absorbing walks: steps before a walk is reported as capped


class TransferOperator:
    """Common interface: apply and powers, plus what each carrier does its own way: adjoint_apply,
    invariant_measure, stationarity_residual, support_mass, absorbing_states, walk and lifted."""

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
        if not np.all(np.abs(rows - 1.0) <= UNITALITY_TOL):  # written so that a NaN row fails
            raise NormalizationError("rows must sum to 1 within 1e-12 (R1 = 1)")
        k.flags.writeable = False  # not copied: the cached facts below stay true of it
        object.__setattr__(self, "kernel", k)

    def apply(self, phi: Observable) -> Observable:
        _check_same(self.space, phi.space)
        return Observable.from_values(self.space, self.kernel @ phi.values)

    def fingerprint(self) -> str:
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        return "matrix:" + hashlib.sha256(np.ascontiguousarray(self.kernel)).hexdigest()[:16]

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        return _cdf_table(self.kernel)

    @cached_property
    def _classes(self) -> list[np.ndarray]:
        return _closed_classes(self.kernel)

    def lifted(self) -> "MatrixOperator":
        """R on a carrier that holds the product of two observables: a finite carrier already does."""
        return self

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
        c, *others = self._classes
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

    def harmonic_extension(self, values) -> np.ndarray:
        """The h equal to ``values`` on ``absorbing_states`` with Kh = h elsewhere: E_x(values at absorption).

        One solve (I - Q) h = K[inner, absorbing] values[absorbing] with Q = K[inner, inner]. I - Q is
        invertible exactly when every state has a path to an absorbing state on the graph K > 0
        (Kemeny and Snell's fundamental matrix), so the states without one are refused by name first.
        """
        k = self.kernel
        absorbing = np.zeros(self.space.n, dtype=bool)
        absorbing[self.absorbing_states()] = True
        reach, new = absorbing.copy(), absorbing
        while new.any():  # grow backward from the absorbing set: new states step into the last ones
            new = (k[:, new] > 0).any(axis=1) & ~reach
            reach |= new
        if not reach.all():
            raise ValueError(f"states {np.flatnonzero(~reach).tolist()} never reach an absorbing state")
        h, inner = np.array(values, dtype=float), ~absorbing
        q = k[np.ix_(inner, inner)]
        h[inner] = np.linalg.solve(np.eye(len(q)) - q, k[np.ix_(inner, absorbing)] @ h[absorbing])
        return h

    def walk(self, root, n: int, count: int, seed: int) -> np.ndarray:
        """The (count, n) state indices of ``sample_paths`` from a state index or a Measure:
        the shared guided step on the operator's table, vectorised across paths; a Measure
        root is one more step, on the one-row table of its weights, built once per walk."""
        table = self._table
        first = _cdf_table(root.weights[None, :]) if isinstance(root, Measure) else None
        out = np.empty((count, n), dtype=np.intp)
        for rows, rng in chunks(count, seed):
            size = rows.stop - rows.start
            if first is None:
                x = np.full(size, root, dtype=np.intp)
            else:
                x = _next_states(first, np.zeros(size, np.intp), rng.random(size))
            out[rows, 0] = x
            for step in range(1, n):
                x = _next_states(table, x, rng.random(size))
                out[rows, step] = x
        return out


def simulate_absorbing(
    R: MatrixOperator, absorbing: np.ndarray, start: int, count: int, seed: int
) -> tuple[np.ndarray, int]:
    """Run walks of R from `start` until they hit an absorbing state or STEP_CAP steps.

    Returns (final state per walk, number of walks that hit the cap); capped walks are reported,
    never silently dropped, with their state at the cap.  A start outside [0, n) or a count below 1
    raises ValueError.  Each step draws one uniform for each live walk, in walk order, on R's table;
    the live walks are kept compacted, and a walk's final state is written when it absorbs.
    """
    if not 0 <= start < R.space.n or count < 1:
        raise ValueError(f"need a start index in [0, {R.space.n}) and a count >= 1, got start {start}, count {count}")
    finals = np.full(count, int(start), dtype=np.intp)
    if absorbing[start]:
        return finals, 0
    table, capped = R._table, 0
    for rows, rng in chunks(count, seed):
        live = np.arange(rows.start, rows.stop)  # the walks still moving, in walk order, and their states x
        x = finals[live]
        for _ in range(STEP_CAP):
            if not live.size:
                break
            x = _next_states(table, x, rng.random(live.size))
            done = absorbing[x]
            if done.any():
                finals[live[done]] = x[done]
                live, x = live[~done], x[~done]
        finals[live] = x
        capped += live.size
    return finals, capped


def _cdf_table(kernel) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The guided sampling table of a stochastic kernel: per row, column 0 and the columns where K > 0.

    Returns (cols, cum, guide, rounds).  ``cols`` holds the column indices in order and ``cum`` the
    row's cumulative sums at them, 1.0 wherever the row has reached its total; the skipped entries
    are zeros, whose addition changes no bit, so ``cum`` is the dense pinned cumulative sum read at
    ``cols``.  Both are padded to the widest row, d entries, and then by 2^rounds - 1 more columns
    (1.0 in ``cum``), so a bisection never reads past a row.  ``guide[x, b]`` (int32) is the number
    of entries of row x below b/m for m = 2 pow2(d) buckets, pow2(d) the least power of two >= d,
    counted from floor(min(cum, 1) m) by one bincount and cumsum; ``rounds`` is the bit length of
    the widest bucket's count of entries below 1, at most ceil(log2 d).  Built in O(nonzeros + rows m)
    from ``np.nonzero``.
    """
    r, c = np.nonzero(kernel)
    r, c = r[c > 0], c[c > 0]  # column 0 sits in slot 0 of every row, positive or not
    slot = np.arange(r.size) - np.searchsorted(r, r) + 1  # r is sorted: 1 + the rank within the row
    n, d = len(kernel), 1 + int(slot.max(initial=0))
    m = 2 << (d - 1).bit_length()  # a power of two, so u m and b / m are exact
    vals = np.zeros((n, d))
    vals[:, 0] = kernel[:, 0]
    vals[r, slot] = kernel[r, c]
    cum = np.cumsum(vals, axis=1, out=vals)
    np.copyto(cum, 1.0, where=cum >= cum[:, -1:])
    keys = (np.minimum(cum, 1.0) * m).astype(np.intp) + np.arange(0, n * (m + 1), m + 1)[:, None]
    counts = np.bincount(keys.ravel(), minlength=n * (m + 1)).reshape(n, m + 1)[:, :m]
    rounds = int(counts.max()).bit_length()
    guide = np.cumsum(counts, axis=1, dtype=np.int32)
    guide -= counts  # in place, as int32: the count below each bucket's left edge
    pad = (1 << rounds) - 1
    cols = np.zeros((n, d + pad), dtype=np.intp)
    cols[r, slot] = c
    return cols, np.pad(cum, ((0, 0), (0, pad)), constant_values=1.0), guide, rounds


def _next_states(table: tuple[np.ndarray, np.ndarray, np.ndarray, int], x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The sampling step: for each walker i, the number of entries of the dense pinned cumulative
    row x[i] below u[i], read off the stored columns of ``_cdf_table``.

    Along a row the test ``entry < u`` holds on a prefix (the row is nondecreasing up to its
    pinned 1.0 tail and u < 1).  The guide gives the count pos of entries below floor(u m) / m,
    and the rest of the count lies in u's bucket, so a branchless bisection there finds it in
    ``rounds`` rounds; the padding past the row end reads 1.0.  The next state is cols[x, pos]: the
    dense entry that first reaches u rises there, so K > 0 at it, or it is column 0, which every
    row stores (u = 0.0 maps to state 0).
    """
    cols, cum, guide, rounds = table
    m = guide.shape[1]
    pos = x * cum.shape[1] + guide.take(x * m + (u * m).astype(np.intp))
    step = (1 << rounds) >> 1
    while step:
        pos += step * (cum.take(pos + (step - 1)) < u)
        step >>= 1
    return cols.take(pos)


@dataclass(frozen=True, eq=False)
class CircleRuelleOperator(TransferOperator):
    """Ruelle operator for the doubling map with weight W (W = |m0|^2 / 2 for a filter m0).

    W is held once, as the dense array ``_w`` from index ``_w_offset``: ``weight``, a map n -> W_n in
    any key order, becomes the index-ordered view of it, and every value of W is ``weight_at``.
    """

    space: CircleSpace
    weight: dict[int, complex]

    def __post_init__(self):
        _require(self.space, CircleSpace, "a Ruelle operator with a trig-polynomial weight")
        dense, offset = dense_coeffs(self.weight)
        object.__setattr__(self, "_w", dense)
        object.__setattr__(self, "_w_offset", offset)
        object.__setattr__(self, "weight", sparse_coeffs(dense, offset))
        # unitality: (R 1)_k = 2 W_{2k} must be the delta at 0, W_0 = 1/2 included
        for k, c in {0: 0j, **sparse_coeffs(*even_gather(dense, offset))}.items():
            if not abs(c - (0.5 if k == 0 else 0.0)) <= UNITALITY_TOL:
                raise NormalizationError(f"weight violates R1=1: coefficient W_{2 * k} = {c}")
        vals = self.weight_at(np.arange(self.space.grid) / self.space.grid)
        if not np.all((np.abs(vals.imag) <= POSITIVITY_TOL) & (vals.real >= -POSITIVITY_TOL)):
            raise NormalizationError("weight must be real and nonnegative on the grid")

    def apply(self, phi: Observable) -> Observable:
        """(R phi)_k = 2 (W * phi)_{2k}: one convolution, then every other entry."""
        _check_same(self.space, phi.space)
        g, k0 = even_gather(convolve(self._w, phi.coeffs), self._w_offset + phi.offset)
        return Observable._trusted(self.space, 2 * g, k0)

    def weight_at(self, t):
        """W at an angle or elementwise on an array of angles: ``horner`` at e^{2 pi i t}, complex."""
        return horner(self._w, self._w_offset, np.exp(2j * np.pi * np.asarray(t, dtype=float)))

    def _branch_probabilities(self, pre: np.ndarray) -> np.ndarray:
        """P(u0), P(u1) for each row (u0, u1) of an (m, 2) array of preimage angles: W at each, normalised."""
        w = self.weight_at(pre).real
        total = w.sum(axis=1)
        if not np.all(np.abs(total - 1.0) <= 1e-8):
            raise NormalizationError(f"transition weights sum to {total.min()}..{total.max()}, expected 1")
        return w / total[:, None]

    def transition_weights(self, t: Fraction) -> tuple[tuple[Fraction, float], ...]:
        """Backward-branch angles u with u^2 = e^{2 pi i t} and their probabilities."""
        pre = CircleSpace.preimages(np.array([Fraction(t) % 1], dtype=object))
        return tuple(zip(pre[0].tolist(), self._branch_probabilities(pre)[0].tolist()))

    def fingerprint(self) -> str:
        items = [(n, c.real, c.imag) for n, c in self.weight.items()]
        h = hashlib.sha256(repr(items).encode())
        return "ruelle:" + h.hexdigest()[:16]

    def lifted(self) -> "CircleRuelleOperator":
        """R on the circle of twice the degree, which holds the product of two observables; W is not checked again."""
        out = copy.copy(self)
        object.__setattr__(out, "space", CircleSpace(2 * self.space.degree))
        return out

    def adjoint_apply(self, mu: Measure, psi: Observable) -> Observable:
        """(R* psi)(x) = 2 W(x) psi(r(x)) in L^2(Haar), the only measure on the circle carrier."""
        prod = convolve(2 * self._w, doubled(psi.coeffs))
        return Observable._trusted(self.space, prod, self._w_offset + 2 * psi.offset)

    def invariant_measure(self) -> Measure:
        """Haar, exactly when it is invariant; see ``invariant_measure``."""
        haar = Measure.haar_measure(self.space)
        # mu o R = mu on characters e_n reads 2 W_{-n} = delta_{n,0}; unitality holds W_0 within UNITALITY_TOL of 1/2
        if not self.stationarity_residual(haar) <= 2 * UNITALITY_TOL:
            raise ValueError(
                "Haar is not invariant for this weight (W is not constant 1/2); "
                "no trig-polynomial-representable invariant measure exists"
            )
        return haar

    def stationarity_residual(self, mu: Measure) -> float:
        """max |int R(e_n) dHaar - int e_n dHaar| = |2 W_{-n} - delta_{n,0}| over |n| <= max(degree, span of W).

        The Haar integral of R(e_n) is its 0th coefficient, one product 2 W_{-n}; so this is the
        sweep over the characters up to the degree and the span, without building them.
        """
        d = max(self.space.degree, *map(abs, self.weight))
        gap = 2 * coeffs_at(self._w, self._w_offset, np.arange(d, -d - 1, -1))
        gap[d] -= 1.0
        return float(np.max(np.abs(gap)))

    def support_mass(self, x, n: int) -> float:
        """1.0 by construction: every backward branch is a preimage, and R1 = 1 was checked."""
        return 1.0

    def absorbing_states(self) -> list[int]:
        """No state absorbs: the backward walk on the circle never stops."""
        return []

    def walk(self, t0, n: int, count: int, seed: int) -> np.ndarray:
        """The (count, n) paths of ``sample_paths`` from t0 = p/q, numerators over D = q 2^(n - 1) (int64 while
        D < 2^53, else Python ints): from t to a square root of it, weighted by W, one step per coordinate over
        the distinct angles N / den, den = q 2^step.  Path i is at ``num[k[i]]``, whose preimages N and N + den
        over 2 den, row k[i] of ``pre``, get W at the floats of float(Fraction) from one ``weight_at`` call; it
        takes child 2k (u0) iff its draw is below p0 and else 2k + 1.  The children are below 2 num.size, so a mask
        over that range compacts them: the taken ones in increasing order, and each path's rank among them.
        """
        if isinstance(t0, Measure):
            raise ValueError("mu-rooted sampling is not supported on the circle carrier")
        out = np.empty((count, n), np.int64 if self.space.denominator(t0, n) < 2**53 else object)
        out[:, 0] = t0.numerator << (n - 1)
        for rows, rng in chunks(count, seed):
            u = rng.random((rows.stop - rows.start, max(n - 1, 1)))
            num, k = np.array([t0.numerator], out.dtype), np.zeros(len(u), dtype=np.intp)
            for step in range(n - 1):
                den = t0.denominator << step
                pre = np.stack([num, num + den], axis=-1)
                p0 = self._branch_probabilities(pre / (2 * den))[:, 0]
                child = 2 * k + (u[:, step] >= p0[k])
                taken = np.zeros(2 * num.size, dtype=bool)
                taken[child] = True
                k = np.cumsum(taken)[child] - 1
                num = pre.ravel()[taken]
                out[rows, step + 1] = num[k] << (n - 2 - step)
        return out


def ruelle_from_endo(space: FiniteSpace) -> MatrixOperator:
    """Ruelle operator (R phi)(x) = sum_{r(y)=x} phi(y) on a finite carrier.

    Fibers are singletons (finite onto maps are bijections), so the only
    weight with R1 = 1 is W = 1 and the operator is the permutation pullback
    by r^{-1}.
    """
    _require(space, FiniteSpace, "a Ruelle operator of an endomorphism")
    idx = np.arange(space.n)
    k = np.zeros((space.n, space.n))
    k[space.forward(idx), idx] = 1.0
    return MatrixOperator(space, k)


def ruelle_from_filter(
    space: CircleSpace, m0: Mapping[int, complex]
) -> CircleRuelleOperator:
    """Ruelle operator with QMF weight W = |m0|^2 / 2 from filter coefficients, by ``autocorrelation``."""
    taps, _ = dense_coeffs(m0)
    return CircleRuelleOperator(space, sparse_coeffs(autocorrelation(taps) / 2, 1 - taps.size))


def uniform_circle_operator(space: CircleSpace) -> CircleRuelleOperator:
    """The fiber-average operator, weight W = 1/2 (group case, N = 2)."""
    return CircleRuelleOperator(space, {0: 0.5})


def kernel_operator(space: FiniteSpace, values, mu: Measure) -> MatrixOperator:
    """Discretize R_K f(x) = int K(x,y) f(y) dmu(y) on a grid as the stochastic matrix K(x, y) mu(y).

    ``MatrixOperator`` refuses a negative value or a row integral off 1 by more than 1e-12.
    """
    _check_same(space, mu.space)
    k = np.asarray(values, dtype=float)
    if k.shape != (space.n, space.n):  # an (n, 1) column would broadcast against mu
        raise ValueError("kernel values must be square and match the state count")
    return MatrixOperator(space, k * mu.weights)


def adjoint_apply(R: TransferOperator, mu: Measure, psi: Observable) -> Observable:
    """R* in L^2(B, mu): <R phi, psi>_mu = <phi, R* psi>_mu.

    Finite case: (R* psi)(y) = sum_x mu(x) K[x,y] psi(x) / mu(y), requiring
    full support.  Circle case (mu = Haar, any weight W):
    (R* psi)(x) = 2 W(x) psi(r(x)).
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


def pullout_check(R: TransferOperator) -> float:
    """Max residual of R((phi o r) psi) = phi R(psi) over a battery of 20 pairs from seed 7.

    Zero certifies the pull-out axiom tying R to the endomorphism.
    """
    rng = np.random.default_rng(7)
    pairs = [(R.space.random_observable(rng), R.space.random_observable(rng)) for _ in range(20)]
    return worst([(R.apply(compose_with_endo(phi) * psi) - phi * R.apply(psi)).coeff_norm() for phi, psi in pairs])


def composition_isometry_residual(m0: Mapping[int, complex], space: CircleSpace) -> float:
    """Max over a battery of 20 observables from seed 11 of | ||m0 (f o r)||^2 - ||f||^2 | in L^2(Haar).

    Zero iff the operator built from |m0|^2 is unital (QMF condition).
    """
    mu = Measure.haar_measure(space)
    m = Observable.from_fourier(space, m0)
    rng = np.random.default_rng(11)
    fs = [space.random_observable(rng, max_degree=min(8, space.degree // 4)) for _ in range(20)]

    def norm(f):
        return inner_product(mu, f, f)

    return worst([abs(norm(m * compose_with_endo(f)) - norm(f)) for f in fs])
