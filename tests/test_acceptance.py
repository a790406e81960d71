"""Acceptance gate: one test per top-level verification criterion.

Each test prints a single PASS/FAIL line so the gate can be read off the
captured output.  Exact identities are held to 1e-12; Monte Carlo claims are
held to stated sigma levels with fixed seeds.
"""

import numpy as np
import pytest
from fractions import Fraction

import xferlab as X
from xferlab.pathmeasure import default_word_battery
from xferlab.solenoid import ensemble_compatibility_violations, random_solenoid_translate

HAAR_M0 = {0: 2**-0.5, 1: 2**-0.5}


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def two_state():
    sp = X.FiniteSpace(("a", "b"))
    return sp, X.MatrixOperator(sp, [[0.75, 0.25], [0.5, 0.5]])


@pytest.fixture(scope="module")
def circle_haar():
    space = X.CircleSpace()
    return space, X.ruelle_from_filter(space, HAAR_M0)


def test_criterion_01_kolmogorov_consistency(two_state):
    """Appending the constant-1 coordinate never changes a cylinder expectation."""
    sp, R = two_state
    worst = 0.0
    rng = np.random.default_rng(101)
    for _ in range(50):
        depth = int(rng.integers(1, 9))
        word = X.CylinderFunctional(
            tuple(
                X.Observable.from_values(sp, rng.standard_normal(2)) for _ in range(depth)
            )
        )
        for x in (0, 1):
            worst = max(worst, X.consistency_residual(R, x, word))
    _report("01-kolmogorov-consistency", worst <= 1e-12)


def test_criterion_02_coordinate_conditioning_is_operator_power(two_state):
    """V1* = E(.|pi_1) against the (n+1)-th coordinate acts as R^n; Q1 = V1 V1* is the same observable."""
    sp, R = two_state
    one = X.Observable.constant(sp, 1.0)
    worst = 0.0
    for n in range(6):
        for phi in (X.Observable.indicator(sp, 0), X.Observable.indicator(sp, 1)):
            word = X.CylinderFunctional((one,) * n + (phi,))
            rn = R.apply_power(phi, n)
            worst = max(worst, float(np.max(np.abs(X.conditional_expectation(R, word).values - rn.values))))
    _report("02-conditioning-powers", worst <= 1e-12)


def test_criterion_03_mc_matches_exact_cylinder_value(two_state):
    """10^5-sample estimates of the depth-3 cylinder mass land within 3 sigma."""
    sp, R = two_state
    chi = X.Observable.indicator(sp, 0)
    word = X.CylinderFunctional((chi, chi, chi))
    exact = 0.5625
    hits = 0
    for seed in range(20):
        ens = X.sample_paths(R, 0, 3, 100_000, seed=1000 + seed)
        mean, stderr = ens.functional_mean(word)
        if abs(mean - exact) <= 3 * stderr:
            hits += 1
    _report("03-mc-cylinder-agreement", hits >= 19)


def test_criterion_04_correlation_law(two_state):
    """Exact lag-1 value, MC agreement, and the geometric decay rate of 1/4."""
    sp, R = two_state
    mu = X.invariant_measure(R)
    chi = X.Observable.indicator(sp, 0)
    ok = abs(X.correlation(mu, R, chi, chi, 1) - 0.5) <= 1e-12

    ens = X.sample_paths(R, mu, 2, 100_000, seed=404)
    mean, stderr = X.correlation_mc(ens, chi, chi, 1, 1)
    ok = ok and abs(mean - 0.5) <= 3 * stderr

    ks = np.arange(1, 13)
    gaps = np.array([X.correlation(mu, R, chi, chi, int(k)) - 4 / 9 for k in ks])
    slope = np.polyfit(ks, np.log(gaps), 1)[0]
    rate = float(np.exp(slope))
    ok = ok and abs(rate - 0.25) <= 0.02
    _report("04-correlation-law", ok)


def test_criterion_05_solenoid_support(circle_haar):
    """Backward walks live on the solenoid: full mass, zero sampled violations."""
    space, R = circle_haar
    ok = all(X.support_mass(R, Fraction(0), n) == 1.0 for n in range(1, 7))

    ens = X.sample_paths(R, Fraction(0), 11, 100_000, seed=505)  # 10^6 transitions
    ok = ok and ensemble_compatibility_violations(ens) == 0

    # negative control: a chain that ignores its (identity) endomorphism
    sp = X.FiniteSpace(("a", "b"), endo=(0, 1))
    bad = X.MatrixOperator(sp, [[0.75, 0.25], [0.5, 0.5]])
    ok = ok and X.support_mass(bad, 0, 2) == pytest.approx(0.75, abs=1e-15)
    _report("05-solenoid-support", ok)


def test_criterion_06_shift_invariance_iff_stationarity(two_state):
    """Residual vanishes at the stationary measure and is 0.175 at (0.9, 0.1)."""
    sp, R = two_state
    battery = [X.CylinderFunctional((X.Observable.indicator(sp, i),)) for i in (0, 1)]
    mu = X.invariant_measure(R)
    ok = X.shift_invariance_residual(mu, R, battery) <= 1e-12
    skew = X.Measure.from_weights(sp, [0.9, 0.1])
    ok = ok and abs(X.shift_invariance_residual(skew, R, battery) - 0.175) <= 1e-12
    _report("06-shift-invariance", ok)


def test_criterion_07_qmf_suite():
    """Filter identities and translate orthogonality on the cascade output."""
    ok = X.qmf_check(X.haar_filter()).coeff_residual <= 1e-12
    ok = ok and X.qmf_check(X.daubechies4()).coeff_residual <= 1e-12

    # even-stretched Haar: orthogonality failure with a(1) = 1/4 on the
    # normalized cascade output (half-height indicator of [0, 2))
    sf = X.cascade(X.stretched_haar(2), 12, resolution=10, allow_non_qmf=True).normalized()
    a = X.translate_orthogonality(sf)
    ok = ok and abs(a[1] - 0.25) <= 0.01
    ok = ok and X.orthogonality_defect(a) > 0.01

    sf4 = X.cascade(X.daubechies4(), 12, resolution=10)
    a4 = X.translate_orthogonality(sf4)
    ok = ok and max(abs(a4[k]) for k in a4 if k != 0) <= 1e-4
    _report("07-qmf-suite", ok)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the even-stretched Haar filter does not satisfy the fiber-averaged "
        "|m0|^2 = 1 identity: both square roots give the same m0 value, so the "
        "average is 1 + cos(2 pi t); only odd stretches preserve the identity "
        "(see the triple-stretch tests in test_wavelet.py)"
    ),
)
def test_criterion_07_stretched_haar_fiber_identity_clause():
    """Stated clause: the even-stretched Haar filter passes the fiber identity."""
    rep = X.qmf_check(X.stretched_haar(2))
    ok = rep.coeff_residual <= 1e-10 and rep.grid_residual <= 1e-9
    _report("07b-stretched-haar-fiber-identity", ok)


def test_criterion_08_wavelet_representation():
    """Covariance, scaling, and orthogonality identities; strictly growing spans."""
    rep = X.representation_check(X.haar_filter(), depth=3, levels=4, max_char=2)
    ok = rep.covariance_residual <= 1e-12
    ok = ok and rep.scaling_residual <= 1e-12
    ok = ok and rep.orthogonality_residual <= 1e-12
    dims = rep.span_dimensions[:5]
    ok = ok and all(b > a for a, b in zip(dims, dims[1:]))
    _report("08-wavelet-representation", ok)


def test_criterion_09_graph_suite():
    """Dirichlet value, hitting MC, reversibility, Laplacian/mean-value duality."""
    net = X.path_network([1.0, 2.0])
    h = X.harmonic_solve(net, {0: 0.0, 2: 1.0})
    ok = h.values[1] == 2 / 3

    rep = X.hitting_verification(net, {0: 0.0, 2: 1.0}, start=1, count=100_000, seed=909)
    ok = ok and rep.capped == 0 and abs(rep.estimate - rep.exact) <= 3 * rep.stderr

    rng = np.random.default_rng(99)
    for i in range(20):
        n = int(rng.integers(5, 31))
        net_i = X.random_network(n, int(rng.integers(1, 4)), seed=9000 + i)
        ok = ok and X.detailed_balance_residual(net_i) <= 1e-12
        phi = X.Observable.from_values(net_i.space, rng.standard_normal(n))
        P = X.transition_operator(net_i)
        lap = X.laplacian_apply(net_i, phi)
        mean_form = net_i.total_conductance() * (phi.values - P.apply(phi).values)
        interior = list(net_i.interior)
        ok = ok and float(np.max(np.abs(lap[interior] - mean_form[interior]))) <= 1e-12
    _report("09-graph-suite", ok)


def test_criterion_10_haar_translation_invariance():
    """Path-space Haar measure is invariant under rational solenoid translations."""
    space = X.CircleSpace()
    R = X.uniform_circle_operator(space)
    mu = X.Measure.haar_measure(space)
    worst = 0.0
    rng = np.random.default_rng(10)
    for seed in range(10):
        depth = int(rng.integers(1, 5))
        tr = random_solenoid_translate(space, depth=depth, seed=777 + seed)
        word = X.CylinderFunctional(
            tuple(
                X.Observable.character(space, int(rng.integers(-3, 4)))
                for _ in range(depth)
            )
        )
        worst = max(worst, X.group_translation_invariance(R, mu, word, tr))
    _report("10-haar-translation-invariance", worst <= 1e-12)


def test_criterion_11_smale_williams():
    """Orbit confinement to radius 3/4 and exact meridional contraction 1/4."""
    orbit = X.smale_williams_orbit(X.SmaleWilliamsState(0.3711, 0.95 + 0.2j), 10_000)
    radii = np.hypot(orbit[1:, 1], orbit[1:, 2])
    ok = float(radii.max()) <= 0.75 + 1e-12

    # exact measurement on dyadic pairs (all float operations are exact there)
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = 0.0  # the only angle whose phase factor is an exact float
        z1 = complex(*(rng.integers(-64, 65, 2) / 128))
        z2 = complex(*(rng.integers(-64, 65, 2) / 128))
        if z1 == z2:
            continue
        fa = X.smale_williams_map(X.SmaleWilliamsState(t, z1))
        fb = X.smale_williams_map(X.SmaleWilliamsState(t, z2))
        ok = ok and abs(fa.z - fb.z) == abs(z1 - z2) / 4
    # and to float precision for generic pairs
    for _ in range(20):
        t = float(rng.random())
        z1 = complex(*(rng.uniform(-0.7, 0.7, 2)))
        z2 = complex(*(rng.uniform(-0.7, 0.7, 2)))
        fa = X.smale_williams_map(X.SmaleWilliamsState(t, z1))
        fb = X.smale_williams_map(X.SmaleWilliamsState(t, z2))
        ok = ok and abs(abs(fa.z - fb.z) - abs(z1 - z2) / 4) <= 1e-15
    _report("11-smale-williams", ok)
