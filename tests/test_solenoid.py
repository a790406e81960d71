"""Solenoid structure: compatibility, shift/lift, invariance, group case."""

import time

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xferlab import (
    CircleSpace,
    CylinderFunctional,
    FiniteSpace,
    MatrixOperator,
    Measure,
    Observable,
    SmaleWilliamsState,
    SolenoidWord,
    covariance_check,
    daubechies4,
    group_translation_invariance,
    invariant_measure,
    lift_conditional_residual,
    rhat,
    ruelle_from_endo,
    ruelle_from_filter,
    sample_paths,
    shift,
    shift_invariance_residual,
    smale_williams_map,
    smale_williams_orbit,
    support_mass,
    uniform_circle_operator,
)
from xferlab.pathmeasure import default_word_battery
from xferlab.solenoid import (
    ensemble_compatibility_violations,
    random_solenoid_translate,
)

HAAR_M0 = {0: 2**-0.5, 1: 2**-0.5}


@pytest.fixture
def circle():
    return CircleSpace(degree=32)


@pytest.fixture
def circle_R(circle):
    return ruelle_from_filter(circle, HAAR_M0)


class TestSolenoidWords:
    def test_circle_word_validates_compatibility(self, circle):
        SolenoidWord(circle, (Fraction(1, 3), Fraction(1, 6), Fraction(7, 12)))
        with pytest.raises(ValueError):
            SolenoidWord(circle, (Fraction(1, 3), Fraction(1, 5)))

    def test_shift_and_lift_are_mutually_inverse(self, circle):
        w = SolenoidWord(circle, (Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)))
        assert shift(rhat(w)).entries == w.entries
        assert rhat(shift(w)).entries == w.entries

    def test_finite_word_uses_the_endo(self):
        sp = FiniteSpace(("a", "b", "c"), endo=(1, 2, 0))
        SolenoidWord(sp, (1, 0, 2))
        with pytest.raises(ValueError):
            SolenoidWord(sp, (1, 1))


class TestSupport:
    def test_full_mass_for_pullout_operator(self, circle_R):
        for n in range(1, 7):
            assert support_mass(circle_R, Fraction(0), n) == 1.0
        assert support_mass(circle_R, Fraction(1, 3), 5) == 1.0

    def test_mass_is_monotone_in_depth(self):
        sp = FiniteSpace(("a", "b"), endo=(0, 1))
        R = MatrixOperator(sp, [[0.75, 0.25], [0.5, 0.5]])
        masses = [support_mass(R, 0, n) for n in range(1, 6)]
        assert all(a >= b for a, b in zip(masses, masses[1:]))

    def test_negative_control_mass(self):
        # identity endomorphism but off-diagonal transitions: pullout fails
        sp = FiniteSpace(("a", "b"), endo=(0, 1))
        R = MatrixOperator(sp, [[0.75, 0.25], [0.5, 0.5]])
        assert support_mass(R, 0, 2) == pytest.approx(0.75, abs=1e-15)

    def test_sampled_paths_never_violate_compatibility(self, circle_R):
        ens = sample_paths(circle_R, Fraction(0), 8, 5000, seed=13)
        assert ensemble_compatibility_violations(ens) == 0

    def test_circle_mass_is_one_by_construction_at_any_depth(self, circle):
        # 2^39 backward branches at depth 40: only the construction argument can answer
        d4 = ruelle_from_filter(circle, daubechies4().m0_coeffs())
        t0 = time.perf_counter()
        assert support_mass(d4, Fraction(1, 3), 40) == 1.0
        assert time.perf_counter() - t0 < 0.05
        with pytest.raises(ValueError):
            support_mass(d4, Fraction(1, 3), 0)


@st.composite
def circle_words(draw):
    """Equal-length angle words: backward branches mixed with arbitrary angles, small to huge denominators."""
    q = draw(st.sampled_from([1, 3, 7, 12, 2**31 - 1, 2**31 + 1, 2**32, 2**40 + 3, 2**64 + 13]))
    count, depth = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    words = []
    for _ in range(count):
        word = [Fraction(draw(st.integers(0, q - 1)), q)]
        for _ in range(depth - 1):
            if draw(st.booleans()):
                word.append((word[-1] + draw(st.integers(0, 1))) / 2)
            else:
                word.append(Fraction(draw(st.integers(0, 4 * q - 1)), 4 * q))
        words.append(tuple(word))
    return words


@st.composite
def finite_words(draw):
    """A finite carrier with a random bijection r, and index words: backward branches mixed with arbitrary states."""
    n = draw(st.integers(1, 5))
    endo = draw(st.permutations(range(n)))
    count, depth = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    words = []
    for _ in range(count):
        word = [draw(st.integers(0, n - 1))]
        for _ in range(depth - 1):
            word.append(endo.index(word[-1]) if draw(st.booleans()) else draw(st.integers(0, n - 1)))
        words.append(tuple(word))
    return FiniteSpace(tuple("abcde"[:n]), endo=tuple(endo)), words


@settings(max_examples=200, deadline=None)
@given(st.one_of(circle_words().map(lambda words: (CircleSpace(), words)), finite_words()))
# angles left unreduced, with numerators past 2^63 over small denominators: ``point`` reads them mod 1
@example((CircleSpace(), [(Fraction(2**70 + 1, 3), Fraction(2**69 + 2, 3)),
                          (Fraction(2**70 + 1, 3), Fraction(-2**69 - 1, 3))]))
def test_a_solenoid_word_builds_exactly_when_the_oracle_finds_no_incompatible_transition(case):
    space, words = case
    for w in words:
        if isinstance(space, CircleSpace):  # the Fraction oracle: 2 x_{k+1} - x_k in Z
            compatible = all((2 * b - a) % 1 == 0 for a, b in zip(w, w[1:]))
        else:
            compatible = all(space.endo[b] == a for a, b in zip(w, w[1:]))
        if compatible:
            assert SolenoidWord(space, w).entries == tuple(map(space.point, w))
        else:
            with pytest.raises(ValueError, match="compatibility"):
                SolenoidWord(space, w)


@st.composite
def one_denominator_paths(draw):
    """Rows of numerators over one D = q 2^(depth - 1): backward branches from p/q, then single entries
    replaced by arbitrary numerators.  D < 2^53 gives int64 rows; the root 1/(2^53 + 1) gives Python ints."""
    q = draw(st.sampled_from([1, 3, 7, 2**31 - 1, 2**47 + 5, 2**53 + 1]))
    depth, count = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    den = q << (depth - 1)
    rows = []
    for _ in range(count):
        row = [(1 if q == 2**53 + 1 else draw(st.integers(0, q - 1))) << (depth - 1)]
        for _ in range(depth - 1):
            row.append((row[-1] + draw(st.integers(0, 1)) * den) // 2)  # (x + b) / 2 over the same D
        rows.append(row)
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        rows[draw(st.integers(0, count - 1))][draw(st.integers(0, depth - 1))] = draw(st.integers(0, den - 1))
    dtype = np.int64 if den < 2**53 else object
    return np.array(rows, dtype=dtype).reshape(count, depth), den


@settings(max_examples=200, deadline=None)
@given(one_denominator_paths())
def test_one_denominator_count_matches_the_fraction_oracle(case):
    paths, den = case
    oracle = sum((2 * Fraction(b, den) - Fraction(a, den)) % 1 != 0
                 for row in paths.tolist() for a, b in zip(row, row[1:]))
    assert CircleSpace.incompatible_paths(paths, den) == oracle


@settings(max_examples=200, deadline=None)
@given(finite_words())
def test_finite_path_count_matches_the_endomorphism_oracle(case):
    space, words = case
    paths = np.array(words, dtype=np.intp).reshape(len(words), -1 if words else 1)
    oracle = sum(space.endo[b] != a for w in words for a, b in zip(w, w[1:]))
    assert space.incompatible_paths(paths, 1) == oracle


@pytest.mark.parametrize("space", [FiniteSpace(("a", "b"), endo=(1, 0)), CircleSpace()], ids=["finite", "circle"])
def test_an_empty_ensemble_has_no_incompatible_transition(space):
    den = space.denominator(Fraction(1, 3), 3)
    assert space.incompatible_paths(np.zeros((0, 3), dtype=np.int64), den) == 0


def test_a_million_branching_transitions_read_no_violation():
    # from root 0 under Haar every path is constant; D4 from 1/3 branches at every step
    d4 = ruelle_from_filter(CircleSpace(), daubechies4().m0_coeffs())
    ens = sample_paths(d4, Fraction(1, 3), 11, 100_000, seed=505)  # 10^6 transitions
    assert ensemble_compatibility_violations(ens) == 0
    assert len(set(ens.samples[:, -1].tolist())) > 1


class TestShiftInvariance:
    @pytest.fixture
    def two_state(self):
        sp = FiniteSpace(("a", "b"))
        return sp, MatrixOperator(sp, [[0.75, 0.25], [0.5, 0.5]])

    def test_stationary_measure_gives_invariance(self, two_state):
        sp, R = two_state
        mu = invariant_measure(R)
        battery = default_word_battery(sp, seed=4)
        assert shift_invariance_residual(mu, R, battery) < 1e-12

    def test_nonstationary_residual_frozen_value(self, two_state):
        sp, R = two_state
        mu = Measure.from_weights(sp, [0.9, 0.1])
        battery = [CylinderFunctional((Observable.indicator(sp, i),)) for i in (0, 1)]
        # oracle: |mu R - mu| at the indicator = |0.9*0.75 + 0.1*0.5 - 0.9| = 0.175
        assert shift_invariance_residual(mu, R, battery) == pytest.approx(0.175)


class TestLiftAndCovariance:
    def test_lift_conditional_identity(self, circle_R):
        words = default_word_battery(circle_R.space, max_depth=3, per_depth=3, seed=6)
        pts = [Fraction(0), Fraction(1, 3), Fraction(2, 5)]
        assert lift_conditional_residual(circle_R, words, pts) < 1e-10

    def test_covariance_relations(self, circle_R):
        space = circle_R.space
        mu = Measure.haar_measure(space)
        basis = [Observable.character(space, n) for n in (-2, -1, 0, 1, 2)]
        words = default_word_battery(space, max_depth=3, per_depth=2, seed=15)
        m = Observable.from_fourier(space, HAAR_M0)
        out = covariance_check(circle_R, mu, basis, words, m=m)
        assert out["v1_covariance"] < 1e-12
        assert out["multiplication_covariance"] < 1e-10
        assert out["norm_preservation"] < 1e-10


class TestGroupCase:
    def test_haar_invariant_under_solenoid_translation(self, circle):
        R = uniform_circle_operator(circle)
        mu = Measure.haar_measure(circle)
        for seed in range(5):
            tr = random_solenoid_translate(circle, depth=4, seed=seed)
            f = CylinderFunctional(
                tuple(Observable.character(circle, n) for n in (1, -1, 2, 0))
            )
            assert group_translation_invariance(R, mu, f, tr) < 1e-12

    def test_group_case_requires_uniform_weight(self, circle, circle_R):
        mu = Measure.haar_measure(circle)
        tr = random_solenoid_translate(circle, depth=2, seed=0)
        f = CylinderFunctional((Observable.character(circle, 1),))
        from xferlab import NormalizationError

        with pytest.raises(NormalizationError):
            group_translation_invariance(circle_R, mu, f, tr)


class TestSmaleWilliams:
    def test_orbit_enters_the_attractor_radius(self):
        orbit = smale_williams_orbit(SmaleWilliamsState(0.137, 0.9 + 0.1j), 500)
        radii = np.hypot(orbit[1:, 1], orbit[1:, 2])
        assert radii.max() <= 0.75 + 1e-12

    def test_meridional_contraction_is_exactly_one_quarter(self):
        a = SmaleWilliamsState(0.3, 0.2 + 0.1j)
        b = SmaleWilliamsState(0.3, -0.5 + 0.4j)
        fa, fb = smale_williams_map(a), smale_williams_map(b)
        assert abs(fa.z - fb.z) == pytest.approx(abs(a.z - b.z) / 4, abs=1e-15)

    def test_angle_coordinate_follows_the_doubling_map(self):
        s = SmaleWilliamsState(0.3, 0.0)
        assert smale_williams_map(s).t == pytest.approx(0.6)

    def test_points_outside_the_torus_rejected(self):
        with pytest.raises(ValueError):
            SmaleWilliamsState(0.0, 1.5 + 0.0j)

    @pytest.mark.parametrize("t", [1e17, 1e308, -3.0, -0.0])
    def test_an_integer_angle_is_reduced_before_the_first_step(self, t):
        s = SmaleWilliamsState(t, 0j)
        assert s.t == 0.0 and smale_williams_map(s).z == 0.5

    def test_a_negative_angle_is_stored_reduced(self):
        assert SmaleWilliamsState(-0.25, 0j).t == 0.75
        assert SmaleWilliamsState(-1e-20, 0j).t == 0.0  # not -1e-20 % 1.0, which rounds to 1.0

    @pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
    def test_a_non_finite_angle_is_refused_by_name(self, t):
        with pytest.raises(ValueError, match="t must be a finite angle"):
            SmaleWilliamsState(t, 0j)


def orbit_by_map(s: SmaleWilliamsState, steps: int) -> np.ndarray:
    """Oracle: the per-step loop ``smale_williams_orbit`` replaced, one state per step and no early stop."""
    rows = np.empty((steps + 1, 3))
    rows[0] = (s.t, s.z.real, s.z.imag)
    for i in range(1, steps + 1):
        s = smale_williams_map(s)
        rows[i] = (s.t, s.z.real, s.z.imag)
    return rows


DISK_PART = st.sampled_from([0.0, -0.0]) | st.floats(-0.7, 0.7)


@settings(max_examples=60, deadline=None)
@given(
    t=st.sampled_from([0.0, 5e-324, 1 - 2**-53]) | st.floats(0.0, 1.0, exclude_max=True),
    re=DISK_PART,
    im=DISK_PART,
    steps=st.integers(1, 3000),
)
@example(t=0.3711, re=0.95, im=0.2, steps=588)  # row 588 is the last new state
@example(t=0.3711, re=0.95, im=0.2, steps=589)  # row 589 is the first repeat, and the last row
@example(t=5e-324, re=-0.0, im=-0.0, steps=3000)  # t reaches 0 at step 1074, the state repeats from 1611
@example(t=0.1, re=0.0, im=-0.0, steps=2)
def test_orbit_is_the_per_step_map_loop_bit_for_bit(t, re, im, steps):
    s = SmaleWilliamsState(t, complex(re, im))
    assert smale_williams_orbit(s, steps).tobytes() == orbit_by_map(s, steps).tobytes()
