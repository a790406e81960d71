"""Random walks on weighted graphs.

A network is a finite graph with symmetric positive conductances c_xy and a
distinguished boundary.  The walk moves with probabilities p_xy = c_xy / c(x)
where c(x) = sum_y c_xy; boundary vertices are absorbing.  Harmonicity of phi
means the graph Laplacian (Delta phi)(x) = sum_y c_xy (phi(x) - phi(y))
vanishes at interior vertices, equivalently P phi = phi there, and the
Dirichlet solution equals the expected boundary value at absorption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NormalizationError
from .pathmeasure import STEP_CAP, mean_stderr, simulate_absorbing
from .statespace import FiniteSpace, Observable
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
        if np.max(np.abs(c - c.T)) > 1e-12:
            raise NormalizationError("conductances must be symmetric")
        if np.any(np.diag(c) != 0):
            raise ValueError("self-loops are not supported")
        bd = tuple(sorted({int(b) for b in self.boundary}))
        for b in bd:
            if not 0 <= b < self.space.n:
                raise ValueError("boundary vertex out of range")
        totals = c.sum(axis=1)
        if np.any(totals[self._interior_mask(bd)] <= 0):
            raise ValueError("every interior vertex needs at least one edge")
        object.__setattr__(self, "conductance", c)
        object.__setattr__(self, "boundary", bd)

    def _interior_mask(self, bd=None) -> np.ndarray:
        mask = np.ones(self.space.n, dtype=bool)
        mask[list(bd if bd is not None else self.boundary)] = False
        return mask

    @property
    def interior(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self._interior_mask())[0])

    def total_conductance(self) -> np.ndarray:
        return self.conductance.sum(axis=1)


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
    return float(np.max(np.abs(lap[net._interior_mask()]))) if net.interior else 0.0


def detailed_balance_residual(net: Network) -> float:
    """Max |c(x) p_xy - c(y) p_yx| over interior pairs: reversibility of the walk."""
    p = transition_operator(net).kernel
    totals = net.total_conductance()
    flux = totals[:, None] * p
    interior = net._interior_mask()
    sub = flux[np.ix_(interior, interior)]
    return float(np.max(np.abs(sub - sub.T))) if sub.size else 0.0


def harmonic_solve(net: Network, boundary_values: Mapping[int, float]) -> Observable:
    """Solve the Dirichlet problem: Delta h = 0 inside, h given on the boundary.

    The interior system (diag(c) - C) h_int = C[:, boundary] h_bd is strictly
    solvable exactly when every interior component touches the boundary; a
    singular system is reported rather than regularized.
    """
    if set(boundary_values) != set(net.boundary):
        raise ValueError("boundary values must be given on exactly the boundary set")
    n = net.space.n
    h = np.zeros(n)
    for b, v in boundary_values.items():
        h[b] = float(v)
    interior = np.nonzero(net._interior_mask())[0]
    if interior.size:
        c = net.conductance
        a = np.diag(net.total_conductance()[interior]) - c[np.ix_(interior, interior)]
        rhs = c[np.ix_(interior, np.asarray(net.boundary, dtype=int))] @ h[
            np.asarray(net.boundary, dtype=int)
        ]
        try:
            h[interior] = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "Dirichlet system is singular: some interior component never "
                "reaches the boundary"
            ) from exc
    return Observable.from_values(net.space, h)


@dataclass
class HittingReport:
    exact: float
    estimate: float
    stderr: float
    capped: int
    count: int


def hitting_verification(
    net: Network,
    boundary_values: Mapping[int, float],
    start: int,
    count: int,
    seed: int,
    step_cap: int = STEP_CAP,
) -> HittingReport:
    """Compare h(start) with the Monte Carlo mean boundary value at absorption.

    Walks still active after `step_cap` steps are counted in `capped` and
    contribute their current (interior) value of h, so a nonzero cap count
    flags the estimate rather than hiding slow mixing.
    """
    h = harmonic_solve(net, boundary_values)
    kernel = transition_operator(net).kernel
    absorbing = np.zeros(net.space.n, dtype=bool)
    absorbing[list(net.boundary)] = True
    finals, capped = simulate_absorbing(kernel, absorbing, start, count, seed, step_cap)
    estimate, stderr = mean_stderr(np.real(np.asarray(h.values))[finals])
    return HittingReport(
        exact=float(np.real(h.values[start])),
        estimate=estimate,
        stderr=stderr,
        capped=capped,
        count=count,
    )


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


def random_network(
    n: int, boundary_count: int, seed: int, edge_probability: float = 0.5
) -> Network:
    """Seeded random connected conductance network for property tests."""
    if not 1 <= boundary_count < n:
        raise ValueError("need at least one boundary and one interior vertex")
    rng = np.random.default_rng(seed)
    c = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):  # spanning path keeps it connected
        c[a, b] = c[b, a] = rng.uniform(0.5, 2.0)
    for i in range(n):
        for j in range(i + 1, n):
            if c[i, j] == 0 and rng.random() < edge_probability:
                c[i, j] = c[j, i] = rng.uniform(0.5, 2.0)
    boundary = tuple(int(b) for b in rng.choice(n, size=boundary_count, replace=False))
    space = FiniteSpace(tuple(f"v{i}" for i in range(n)))
    return Network(space, c, boundary)
