"""The finite sampling step, the seed-to-path mapping, and invariant measures that certify or raise.

The pinned finite digests below were recorded with the O(states) counting step
``(u[:, None] > cumsum(K)[x]).sum(axis=1)`` of xferlab 0.1.0, and the circle
digests and CSV bytes with the dict-of-coefficients circle algebra that came
before the dense layout; any change to the mapping from seed to paths, or to
the operator fingerprints, shows up here first.
"""

import hashlib
import json
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xferlab import (
    CircleSpace,
    ConvergenceError,
    FiniteSpace,
    Measure,
    ReducibleChainWarning,
    daubechies4,
    haar_filter,
    invariant_measure,
    matrix_operator,
    ruelle_from_filter,
    sample_paths,
)
from xferlab.cli import main
from xferlab.pathmeasure import _cdf_table, _next_states, simulate_absorbing
from xferlab.rng import CHUNK
from xferlab.transferop import DIRECT_SOLVE_MAX, _closed_class_count


def formula_kernel(n: int) -> np.ndarray:
    """A fixed row-stochastic kernel with zero entries and, for n >= 3, a zero last column."""
    i, j = np.indices((n, n))
    k = ((7 * i + 3 * j) % 11).astype(float)
    k[:, 0] += 1.0
    if n >= 3:
        k[:, -1] = 0.0
    return k / k.sum(axis=1, keepdims=True)


def ruin_kernel(n: int, p: float = 0.45) -> np.ndarray:
    """Gambler's ruin on 0..n-1: absorbing ends, step right with probability p."""
    k = np.zeros((n, n))
    k[0, 0] = k[n - 1, n - 1] = 1.0
    for s in range(1, n - 1):
        k[s, s + 1], k[s, s - 1] = p, 1.0 - p
    return k


def samples_digest(n, root, depth, count, seed) -> str:
    space = FiniteSpace(tuple(range(n)))
    R = matrix_operator(space, formula_kernel(n))
    if root == "mu":
        w = np.arange(1.0, n + 1.0)
        root = Measure.from_weights(space, w / w.sum())
    ens = sample_paths(R, root, depth, count, seed)
    return hashlib.sha256(np.ascontiguousarray(ens.samples, dtype=np.int64)).hexdigest()


def absorbing_digest(n, start, count, seed) -> tuple[str, int]:
    k = ruin_kernel(n)
    absorbing = np.zeros(n, dtype=bool)
    absorbing[[0, n - 1]] = True
    finals, capped = simulate_absorbing(k, absorbing, start, count, seed)
    return hashlib.sha256(np.ascontiguousarray(finals, dtype=np.int64)).hexdigest(), capped


# (states, root, depth, count, seed) -> SHA-256 of the int64 samples
PINNED_SAMPLES = [
    ((7, 3, 9, 1000, 11), "55789bcb63a33743f378516a642e63b783e565ef7328ed4e5bb5c6e0530be9ec"),
    ((50, "mu", 6, 3000, 5), "19d743eb2a957b93b7e32e24cdc06a4a1193746aac549dca999ada5799f77693"),
    ((300, 0, 5, CHUNK + 904, 3), "bc874ab4f313970b314edc416689ca7c8e786d3f44b7be774dbc7a0a32a8959c"),
]
# (states, start, count, seed) -> (SHA-256 of the int64 finals, capped walks)
PINNED_ABSORBING = ((12, 5, CHUNK + 904, 17), ("dc98bb2b794aa559679615b7031af2f0f6207f51f14b54da56543267c95016ad", 0))


def circle_digest(filt, root, depth, count, seed) -> tuple[str, str]:
    h = haar_filter() if filt == "haar" else daubechies4()
    R = ruelle_from_filter(CircleSpace(), h.m0_coeffs())
    ens = sample_paths(R, Fraction(root), depth, count, seed)
    text = "\n".join(",".join(map(str, path)) for path in ens.samples)
    return R.fingerprint(), hashlib.sha256(text.encode()).hexdigest()


HAAR_PRINT, D4_PRINT = "ruelle:4fe0fa236a94c1c2", "ruelle:e9128c9a6d82e987"
# (filter, root, depth, count, seed) -> (fingerprint, SHA-256 of the paths as "p/q" text)
PINNED_CIRCLE = [
    (("haar", "1/3", 9, 1000, 4), (HAAR_PRINT, "d85138c6475dad1c8fb010ecfbc1a3c5d9d4493c4bafa2ca80bf89af0bf2ee0f")),
    (("d4", "1/3", 8, 800, 12), (D4_PRINT, "1a94cb2211479b42435a8d3ee633eaa6ae5964e593e3b9ffbc77a754eae065b4")),
    (("d4", "2/7", 6, CHUNK + 300, 21), (D4_PRINT, "dd82e9eb433a6688c5e3802c09c59b4a904f70c8e3203a8a0cf5b834d2640b30")),
    (("haar", "5/11", 7, CHUNK + 100, 2), (HAAR_PRINT, "28e2e23c030afb39423722d311ab80ad107c1fc0805230dd6a2a49a62c2d0f00")),
]
CIRCLE_SAMPLE_CFG = {
    "space": {"kind": "circle", "degree": 32},
    "operator": {"kind": "ruelle", "m0": {"0": 0.48296291314453416, "1": 0.8365163037378079,
                                          "2": 0.2241438680420134, "3": -0.12940952255126037}},
    "root": "2/7", "depth": 6, "count": 700, "seed": 5,
    "word": [{"fourier": {"-1": 0.5, "0": 1.0, "1": 0.5}}, {"fourier": {"2": [0.0, 0.25], "-2": [0.0, -0.25]}}],
}
PINNED_CIRCLE_CSV = "0ebc1614ff37a985a571dfb702149135efa90b500a87491a0bcd6668ee95c37d"


class TestSeedToPathMapping:
    @pytest.mark.parametrize("case,digest", PINNED_SAMPLES)
    def test_sample_paths_stream_is_pinned(self, case, digest):
        assert samples_digest(*case) == digest

    def test_simulate_absorbing_stream_is_pinned(self):
        case, expected = PINNED_ABSORBING
        assert absorbing_digest(*case) == expected

    @pytest.mark.parametrize("case,expected", PINNED_CIRCLE)
    def test_circle_stream_and_fingerprint_are_pinned(self, case, expected):
        assert circle_digest(*case) == expected

    def test_circle_sample_csv_bytes_are_pinned(self, tmp_path):
        cfg, csv_path = tmp_path / "cfg.json", tmp_path / "paths.csv"
        cfg.write_text(json.dumps(CIRCLE_SAMPLE_CFG))
        code = main(["sample", "--config", str(cfg), "--output", str(tmp_path / "r.json"), "--csv", str(csv_path)])
        assert code == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == PINNED_CIRCLE_CSV


def _count_step(table, x, u):
    """The O(states) reference: number of entries of row x strictly below u."""
    return (u[:, None] > table[x]).sum(axis=1)


@st.composite
def kernel_and_draws(draw):
    n = draw(st.integers(1, 12))
    entry = st.sampled_from([0.0, 0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0, 2.0, 7.0])
    k = np.array([[draw(entry) for _ in range(n)] for _ in range(n)])
    zero_tail = draw(st.integers(0, n - 1))
    if zero_tail:
        k[:, n - zero_tail :] = 0.0
    empty = k.sum(axis=1) == 0
    k[empty, 0] = 1.0
    k /= k.sum(axis=1, keepdims=True)
    m = draw(st.integers(1, 20))
    x = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.intp)
    table = _cdf_table(k)
    u = []
    for xi in x:
        exact = st.sampled_from(sorted(set(float(c) for c in table[xi] if c < 1.0)) or [0.0])
        u.append(draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), exact)))
    return k, table, x, np.array(u)


class TestSamplingStep:
    @settings(max_examples=300, deadline=None)
    @given(kernel_and_draws())
    def test_bisection_equals_the_count(self, case):
        k, table, x, u = case
        step = _next_states(table, x, u)
        assert np.array_equal(step, _count_step(table, x, u))
        # the table is the plain cumulative sum until the row reaches its total,
        # so outside the rounding gap between that total and 1 the step is the
        # count over the plain cumulative sum
        raw = np.cumsum(k, axis=1)
        assert np.array_equal(table, np.where(raw >= raw[:, -1:], 1.0, raw))
        for xi, ui, si in zip(x, u, step):
            assert k[xi, si] > 0 or ui == 0.0  # u = 0 counts no entry, as before
            if ui <= raw[xi, -1]:
                assert si == _count_step(raw, np.array([xi]), np.array([ui]))[0]

    def test_short_row_never_returns_n(self):
        k = np.array([[0.25, 0.25, 0.5 - 5e-13], [0.5, 0.25, 0.25]])
        k = np.vstack([k, [0.0, 0.0, 1.0]])
        assert abs(k[0].sum() - (1 - 5e-13)) < 1e-15
        u = np.array([1 - 1e-13, 1 - 2e-13])
        x = np.zeros(2, dtype=np.intp)
        assert np.array_equal(_count_step(np.cumsum(k, axis=1), x, u), [3, 3])
        assert np.array_equal(_next_states(_cdf_table(k), x, u), [2, 2])
        R = matrix_operator(FiniteSpace(("a", "b", "c")), k)
        assert np.asarray(sample_paths(R, 0, 4, 500, 1).samples).max() == 2

    def test_single_state(self):
        table = _cdf_table(np.ones((1, 1)))
        x = np.zeros(5, dtype=np.intp)
        assert np.array_equal(_next_states(table, x, np.linspace(0, 0.99, 5)), x)


def reducible_kernel(n: int) -> np.ndarray:
    """Two closed classes, each a lazy cycle, plus one transient state feeding both."""
    k = np.zeros((n, n))
    half = (n - 1) // 2
    for lo, hi in ((0, half), (half, n - 1)):
        idx = np.arange(lo, hi)
        k[idx, idx] = 0.5
        k[idx, np.roll(idx, -1)] += 0.5
    k[n - 1, 0] = k[n - 1, half] = 0.5
    return k


def bipartite_kernel(a: int = 30, b: int = 70, seed: int = 0) -> np.ndarray:
    """A periodic (period 2) chain: every step crosses between blocks of a and b states."""
    rng = np.random.default_rng(seed)
    n = a + b
    k = np.zeros((n, n))
    k[:a, a:] = rng.uniform(0.1, 1.0, (a, b))
    k[a:, :a] = rng.uniform(0.1, 1.0, (b, a))
    return k / k.sum(axis=1, keepdims=True)


def closed_classes_by_closure(kernel) -> int:
    """Oracle: transitive closure by repeated squaring; a class is closed when it reaches nothing outside."""
    n = len(kernel)
    reach = (kernel > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    closed = {frozenset(np.nonzero(reach[i] & reach[:, i])[0]) for i in range(n)
              if np.all(reach[:, i][reach[i]])}
    return len(closed)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_closed_class_count_matches_the_closure(support):
    k = np.array(support, dtype=float)
    k[k.sum(axis=1) == 0, 0] = 1.0
    assert _closed_class_count(k) == closed_classes_by_closure(k)


class TestInvariantMeasure:
    @pytest.mark.parametrize("n", [5, DIRECT_SOLVE_MAX + 1, 101])
    def test_reducible_chain_warns_at_every_size(self, n):
        R = matrix_operator(FiniteSpace(tuple(range(n))), reducible_kernel(n))
        with pytest.warns(ReducibleChainWarning):
            mu = invariant_measure(R)
        assert np.max(np.abs(mu.weights @ R.kernel - mu.weights)) <= 1e-12

    @pytest.mark.parametrize("n", [5, DIRECT_SOLVE_MAX + 1])
    def test_one_closed_class_with_transient_states_does_not_warn(self, n):
        k = reducible_kernel(n)
        k[(n - 1) // 2 - 1] = 0.0  # the first class now drains into the second
        k[(n - 1) // 2 - 1, (n - 1) // 2] = 1.0
        R = matrix_operator(FiniteSpace(tuple(range(n))), k)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReducibleChainWarning)
            invariant_measure(R)

    def test_periodic_chain_certifies_or_raises(self):
        K = bipartite_kernel()
        R = matrix_operator(FiniteSpace(tuple(range(100))), K)
        t0 = time.perf_counter()
        try:
            mu = invariant_measure(R)
        except ConvergenceError:
            assert time.perf_counter() - t0 < 0.1
            return
        assert time.perf_counter() - t0 < 0.1
        assert np.max(np.abs(mu.weights @ K - mu.weights)) <= 1e-12

    def test_power_iteration_raises_at_the_cap(self, monkeypatch):
        import xferlab.transferop as T

        monkeypatch.setattr(T, "POWER_ITER_MAX", 3)
        R = matrix_operator(FiniteSpace(tuple(range(100))), bipartite_kernel())
        with pytest.raises(ConvergenceError):
            invariant_measure(R)
