"""Random walks on weighted graphs.

A network is a finite graph with symmetric positive conductances c_xy and a
distinguished boundary.  The walk moves with probabilities p_xy = c_xy / c(x)
where c(x) = sum_y c_xy; boundary vertices are absorbing.  Harmonicity of phi
means the graph Laplacian (Delta phi)(x) = sum_y c_xy (phi(x) - phi(y))
vanishes at interior vertices, equivalently P phi = phi there, and the
Dirichlet solution equals the expected boundary value at absorption.
``hitting_verification`` checks that by Monte Carlo through
``pathmeasure.hitting`` on the walk operator, which runs the absorbing walks.
A network builds its walk operator once, on first use, for the solve, the
detailed-balance check and the hitting check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import NormalizationError
from .pathmeasure import HittingReport, hitting
from .statespace import FiniteSpace, Observable, worst
from .transferop import MatrixOperator


@dataclass(frozen=True, eq=False)
class Network:
    """Conductance network: symmetric nonnegative matrix plus a boundary set."""

    space: FiniteSpace
    conductance: np.ndarray
    boundary: tuple[int, ...]

    def __post_init__(self):
        c = np.asarray(self.conductance, dtype=float)
        if c.shape != (self.space.n, self.space.n):
            raise ValueError("conductance matrix must be square over the vertex set")
        if np.any(c < 0):
            raise NormalizationError("conductances must be nonnegative")
        if not np.all(np.abs(c - c.T) <= 1e-12):  # written so that a NaN conductance fails
            raise NormalizationError("conductances must be symmetric")
        if np.any(np.diag(c) != 0):
            raise ValueError("self-loops are not supported")
        bd = tuple(sorted({int(b) for b in self.boundary}))
        for b in bd:
            if not 0 <= b < self.space.n:
                raise ValueError("boundary vertex out of range")
        object.__setattr__(self, "conductance", c)
        object.__setattr__(self, "boundary", bd)
        if np.any(self.total_conductance()[self._interior_mask()] <= 0):
            raise ValueError("every interior vertex needs at least one edge")

    def _interior_mask(self) -> np.ndarray:
        mask = np.ones(self.space.n, dtype=bool)
        mask[list(self.boundary)] = False
        return mask

    @property
    def interior(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self._interior_mask())[0])

    def total_conductance(self) -> np.ndarray:
        return self.conductance.sum(axis=1)

    @cached_property
    def _operator(self) -> MatrixOperator:
        return transition_operator(self)


def transition_operator(net: Network) -> MatrixOperator:
    """Walk kernel p_xy = c_xy / c(x), with absorbing boundary rows."""
    k = np.zeros((net.space.n, net.space.n))
    totals = net.total_conductance()
    interior = net._interior_mask()
    k[interior] = net.conductance[interior] / totals[interior, None]
    for b in net.boundary:
        k[b, b] = 1.0
    return MatrixOperator(net.space, k)


def laplacian_apply(net: Network, phi: Observable) -> np.ndarray:
    """(Delta phi)(x) = sum_y c_xy (phi(x) - phi(y)), at every vertex."""
    v = np.asarray(phi.values)
    return net.total_conductance() * v - net.conductance @ v


def harmonicity_residual(net: Network, phi: Observable) -> float:
    """Max |Delta phi| over interior vertices."""
    lap = laplacian_apply(net, phi)
    return worst(np.abs(lap[net._interior_mask()]))


def detailed_balance_residual(net: Network) -> float:
    """Max |c(x) p_xy - c(y) p_yx| over interior pairs: reversibility of the walk."""
    p = net._operator.kernel
    totals = net.total_conductance()
    flux = totals[:, None] * p
    interior = net._interior_mask()
    sub = flux[np.ix_(interior, interior)]
    return worst(np.abs(sub - sub.T))


def _boundary_vector(net: Network, boundary_values: Mapping[int, float]) -> np.ndarray:
    """The boundary values as a vector over the vertices, 0 inside; they must cover exactly the boundary."""
    if set(boundary_values) != set(net.boundary):
        raise ValueError("boundary values must be given on exactly the boundary set")
    v = np.zeros(net.space.n)
    v[list(boundary_values)] = [float(x) for x in boundary_values.values()]
    return v


def harmonic_solve(net: Network, boundary_values: Mapping[int, float]) -> Observable:
    """Solve the Dirichlet problem: Delta h = 0 inside, h given on the boundary.

    Inside, Delta h = 0 reads P h = h, so h is the walk's harmonic extension
    of the boundary values (``MatrixOperator.harmonic_extension``).  It is
    unique exactly when every interior vertex has a path to the boundary; the
    vertices without one are named in a ValueError, whatever the conductances.
    """
    v = _boundary_vector(net, boundary_values)
    return Observable.from_values(net.space, net._operator.harmonic_extension(v))


def hitting_verification(
    net: Network, boundary_values: Mapping[int, float], start: int, count: int, seed: int
) -> HittingReport:
    """Compare h(start) with the Monte Carlo mean boundary value at absorption: ``pathmeasure.hitting``
    on the walk operator, with h the Dirichlet solution of ``harmonic_solve``."""
    return hitting(net._operator, _boundary_vector(net, boundary_values), start, count, seed)


def path_network(conductances: Sequence[float]) -> Network:
    """Path graph 0 - 1 - ... - n with the given edge conductances; endpoints are the boundary."""
    m = len(conductances)
    if m < 1:
        raise ValueError("a path needs at least one edge")
    n = m + 1
    c = np.zeros((n, n))
    for i, ci in enumerate(conductances):
        if ci <= 0:
            raise ValueError("path conductances must be positive")
        c[i, i + 1] = c[i + 1, i] = float(ci)
    space = FiniteSpace(tuple(str(i) for i in range(n)))
    return Network(space, c, (0, n - 1))


def random_network(n: int, boundary_count: int, seed: int) -> Network:
    """Seeded random connected conductance network for property tests: each further edge with probability 1/2."""
    if not 1 <= boundary_count < n:
        raise ValueError("need at least one boundary and one interior vertex")
    rng = np.random.default_rng(seed)
    c = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):  # spanning path keeps it connected
        c[a, b] = c[b, a] = rng.uniform(0.5, 2.0)
    for i in range(n):
        for j in range(i + 1, n):
            if c[i, j] == 0 and rng.random() < 0.5:
                c[i, j] = c[j, i] = rng.uniform(0.5, 2.0)
    boundary = tuple(int(b) for b in rng.choice(n, size=boundary_count, replace=False))
    space = FiniteSpace(tuple(f"v{i}" for i in range(n)))
    return Network(space, c, boundary)
