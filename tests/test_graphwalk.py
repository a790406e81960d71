"""Conductance networks: Dirichlet problem, reversibility, hitting times."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xferlab import (
    FiniteSpace,
    Network,
    NormalizationError,
    Observable,
    detailed_balance_residual,
    harmonic_correspondence,
    harmonic_solve,
    harmonicity_residual,
    hitting,
    hitting_verification,
    laplacian_apply,
    path_network,
    random_network,
    transition_operator,
)
from xferlab import transferop


class TestNetworkValidation:
    def test_conductance_must_be_symmetric(self):
        sp = FiniteSpace(("x", "y"))
        with pytest.raises(NormalizationError):
            Network(sp, np.array([[0.0, 1.0], [2.0, 0.0]]), (0,))

    def test_negative_conductance_rejected(self):
        sp = FiniteSpace(("x", "y"))
        with pytest.raises(NormalizationError):
            Network(sp, np.array([[0.0, -1.0], [-1.0, 0.0]]), (0,))

    def test_isolated_interior_vertex_rejected(self):
        sp = FiniteSpace(("x", "y", "z"))
        c = np.zeros((3, 3))
        c[0, 1] = c[1, 0] = 1.0
        with pytest.raises(ValueError):
            Network(sp, c, (0,))


class TestWalkStructure:
    def test_transition_rows_are_conductance_ratios(self):
        net = path_network([1.0, 2.0])
        P = transition_operator(net)
        assert P.kernel[1] == pytest.approx([1 / 3, 0.0, 2 / 3])

    def test_boundary_is_absorbing(self):
        net = path_network([1.0, 2.0])
        P = transition_operator(net)
        assert P.kernel[0, 0] == 1.0 and P.kernel[2, 2] == 1.0

    def test_detailed_balance(self):
        net = random_network(12, 3, seed=5)
        assert detailed_balance_residual(net) < 1e-12


class TestDirichletProblem:
    def test_weighted_path_value(self):
        # conductances 1 and 2: h(mid) = (1*0 + 2*1)/3 = 2/3, exact
        net = path_network([1.0, 2.0])
        h = harmonic_solve(net, {0: 0.0, 2: 1.0})
        assert h.values[1] == pytest.approx(2 / 3, abs=1e-15)

    def test_solution_is_laplacian_harmonic(self):
        net = random_network(20, 4, seed=9)
        bv = {b: float(i) for i, b in enumerate(net.boundary)}
        h = harmonic_solve(net, bv)
        assert harmonicity_residual(net, h) < 1e-10

    def test_laplacian_mean_value_equivalence(self):
        # Delta phi = c(x) (phi - P phi) at interior vertices
        net = random_network(15, 3, seed=2)
        rng = np.random.default_rng(0)
        phi = Observable.from_values(net.space, rng.standard_normal(net.space.n))
        P = transition_operator(net)
        lap = laplacian_apply(net, phi)
        mean_form = net.total_conductance() * (phi.values - P.apply(phi).values)
        interior = list(net.interior)
        assert np.max(np.abs(lap[interior] - mean_form[interior])) < 1e-12

    def test_maximum_principle(self):
        net = random_network(25, 5, seed=11)
        bv = {b: float(v) for b, v in zip(net.boundary, [0.0, 1.0, 0.5, 0.2, 0.9])}
        h = harmonic_solve(net, bv)
        assert np.min(h.values) >= min(bv.values()) - 1e-12
        assert np.max(h.values) <= max(bv.values()) + 1e-12

    def test_boundary_values_must_cover_the_boundary(self):
        net = path_network([1.0, 1.0])
        with pytest.raises(ValueError):
            harmonic_solve(net, {0: 0.0})

    @given(c1=st.floats(0.1, 10), c2=st.floats(0.1, 10))
    @settings(max_examples=30, deadline=None)
    def test_path_value_is_conductance_weighted_average(self, c1, c2):
        net = path_network([c1, c2])
        h = harmonic_solve(net, {0: 0.0, 2: 1.0})
        assert h.values[1] == pytest.approx(c2 / (c1 + c2), rel=1e-12)


def dirichlet_oracle(c, values):
    """Exact h from the interior Laplacian rows by Gauss-Jordan elimination over Fractions; None if singular.

    Row x reads c(x) h(x) - sum_{y inside} c_xy h(y) = sum_{b on the boundary} c_xb values[b].
    """
    inner = [x for x in range(len(c)) if x not in values]
    rows = [[Fraction(int(c[x].sum()) if y == x else -int(c[x, y])) for y in inner]
            + [Fraction(sum(int(c[x, b]) * v for b, v in values.items()))] for x in inner]
    m = len(inner)
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(m):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    h = [Fraction(values.get(x, 0)) for x in range(len(c))]
    for i, x in enumerate(inner):
        h[x] = rows[i][m] / rows[i][i]
    return h


@st.composite
def integer_networks(draw):
    """Networks of 2-7 vertices with conductances in {0, 1, 2, 3} and integer boundary values in [-3, 3]."""
    n = draw(st.integers(2, 7))
    c = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        c[i, j] = c[j, i] = draw(st.integers(0, 3))
    boundary = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    assume(all(c[x].sum() > 0 for x in range(n) if x not in boundary))
    return c, {b: draw(st.integers(-3, 3)) for b in sorted(boundary)}


class TestAbsorptionSolve:
    @settings(max_examples=150, deadline=None)
    @given(integer_networks())
    def test_harmonic_solve_matches_exact_elimination(self, drawn):
        c, values = drawn
        net = Network(FiniteSpace(tuple(f"v{i}" for i in range(len(c)))), c, tuple(values))
        exact = dirichlet_oracle(c, values)
        if exact is None:  # some interior component has no edge to the boundary
            with pytest.raises(ValueError, match="never reach an absorbing state"):
                harmonic_solve(net, values)
            with pytest.raises(ValueError, match="never reach an absorbing state"):
                hitting_verification(net, values, 0, 1, 0)
            return
        h = harmonic_solve(net, values)
        assert np.max(np.abs(h.values - np.array(exact, dtype=float))) <= 1e-12
        assert harmonic_correspondence(transition_operator(net), h).boundary_residual <= 1e-12
        # sigma^2 = E v^2 - (E v)^2, with E v^2 the exact solution on the squared values
        squares = dirichlet_oracle(c, {b: v * v for b, v in values.items()})
        vector = [float(values.get(x, 0)) for x in range(len(c))]
        for x in range(len(c)):
            rep = hitting_verification(net, values, x, 1, x)
            assert rep == hitting(transition_operator(net), vector, x, 1, x)
            assert rep.exact == h.values[x]
            assert rep.sigma**2 == pytest.approx(float(squares[x] - exact[x] ** 2), abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.1, 2), min_size=4, max_size=4), st.floats(-2, 2))
    def test_a_component_cut_off_from_the_boundary_is_named(self, conductances, value):
        # vertices 2, 3, 4 form a triangle with no edge to the boundary {0}
        conductance = np.zeros((5, 5))
        for (u, v), w in zip([(0, 1), (2, 3), (3, 4), (2, 4)], conductances):
            conductance[u, v] = conductance[v, u] = w
        net = Network(FiniteSpace(tuple("abcde")), conductance, (0,))
        with pytest.raises(ValueError, match=r"states \[2, 3, 4\] never reach"):
            harmonic_solve(net, {0: value})
        with pytest.raises(ValueError, match=r"states \[2, 3, 4\] never reach"):
            harmonic_correspondence(transition_operator(net), Observable.constant(net.space, value))


class TestHitting:
    def test_mc_agrees_with_exact(self):
        net = path_network([1.0, 2.0])
        rep = hitting_verification(net, {0: 0.0, 2: 1.0}, start=1, count=50_000, seed=3)
        assert rep.capped == 0
        assert abs(rep.estimate - rep.exact) < 4 * rep.stderr

    def test_step_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(transferop, "STEP_CAP", 2)
        net = path_network([1.0] * 6)
        rep = hitting_verification(net, {0: 0.0, 6: 1.0}, start=3, count=200, seed=1)
        assert rep.capped > 0
