"""The finite sampling step, the circle walk against its per-path loop, the seed-to-path mapping,
invariant measures that certify or raise, and the start and count checks of the walks.

The pinned finite digests below were recorded with the O(states) counting step
``(u[:, None] > cumsum(K)[x]).sum(axis=1)`` of xferlab 0.1.0, and the circle
digests and CSV bytes with the dict-of-coefficients circle algebra that came
before the dense layout; any change to the mapping from seed to paths, or to
the operator fingerprints, shows up here first.  The Smale–Williams orbit CSV
and report digests were recorded with the per-step orbit loop and ``np.savetxt``.  The seeded
observable batteries were recorded with two scalar ``standard_normal`` draws per coefficient.
"""

import functools
import hashlib
import json
import math
import time
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xferlab import (
    CircleSpace,
    ConvergenceError,
    FiniteSpace,
    MatrixOperator,
    Measure,
    ReducibleChainWarning,
    daubechies4,
    haar_filter,
    invariant_measure,
    ruelle_from_filter,
    sample_paths,
    uniform_circle_operator,
)
from xferlab import transferop
from xferlab.cli import main
from xferlab.graphwalk import hitting_verification, path_network
from xferlab.pathmeasure import CylinderFunctional, default_word_battery, hitting, mean_stderr, simulate_absorbing
from xferlab.rng import CHUNK, chunks
from xferlab.statespace import Observable
from xferlab.transferop import CERTIFICATE_C, _cdf_table, _closed_classes, _next_states

from test_closed_forms import lattice_filter


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
    R = MatrixOperator(space, formula_kernel(n))
    if root == "mu":
        w = np.arange(1.0, n + 1.0)
        root = Measure.from_weights(space, w / w.sum())
    ens = sample_paths(R, root, depth, count, seed)
    return hashlib.sha256(np.ascontiguousarray(ens.samples, dtype=np.int64)).hexdigest()


def absorbing_digest(n, start, count, seed) -> tuple[str, int]:
    R = MatrixOperator(FiniteSpace(tuple(range(n))), ruin_kernel(n))
    absorbing = np.zeros(n, dtype=bool)
    absorbing[[0, n - 1]] = True
    finals, capped = simulate_absorbing(R, absorbing, start, count, seed)
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
SMALE_WILLIAMS_CFG = {"t": 0.3711, "z": [0.95, 0.2], "steps": 40000}
# SHA-256 of the orbit CSV and of the report without "distinct_angles", as the per-step loop wrote them
PINNED_SMALE_WILLIAMS = (
    "4ad3a3e206a7e9a09b9400410cba6605c4a806fd6c0fcad7fa8941da7df1c2c2",
    "13e56e69587dc0bf18e45096371e06089553972e78b4757e864e0c75bb5b8732",
)



def observables_digest(observables) -> str:
    """SHA-256 of each observable's offset (8 bytes, little-endian) and coefficient bytes, in order."""
    h = hashlib.sha256()
    for phi in observables:
        h.update(phi.offset.to_bytes(8, "little", signed=True) + phi.coeffs.tobytes())
    return h.hexdigest()


# default_word_battery(CircleSpace(64)), and the 20 pairs of pullout_check drawn from seed 7 on CircleSpace(64)
PINNED_WORD_BATTERY = "05659859574ead567f49d14bfa27107caf3fe2fa53c194339dd85cf19839c3d4"
PINNED_PULLOUT_PAIRS = "48ae064c59e20af7ca97145a973ddb144f888daf49fa9ffc0cc55989809a2606"


class TestSeedToPathMapping:
    def test_seeded_observable_batteries_are_pinned(self):
        space = CircleSpace(64)
        assert observables_digest(phi for f in default_word_battery(space) for phi in f.word) == PINNED_WORD_BATTERY
        rng = np.random.default_rng(7)  # as pullout_check draws its pairs
        pairs = [(space.random_observable(rng), space.random_observable(rng)) for _ in range(20)]
        assert observables_digest(phi for pair in pairs for phi in pair) == PINNED_PULLOUT_PAIRS

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

    def test_smale_williams_csv_and_report_bytes_are_pinned(self, tmp_path):
        cfg, out, csv_path = tmp_path / "cfg.json", tmp_path / "r.json", tmp_path / "orbit.csv"
        cfg.write_text(json.dumps(SMALE_WILLIAMS_CFG))
        code = main(["smale-williams", "--config", str(cfg), "--output", str(out), "--csv", str(csv_path)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report.pop("distinct_angles") == 53
        text = json.dumps(report, indent=2) + "\n"
        digests = tuple(hashlib.sha256(b).hexdigest() for b in (csv_path.read_bytes(), text.encode()))
        assert digests == PINNED_SMALE_WILLIAMS


def _count_step(table, x, u):
    """The O(states) reference: number of entries of row x strictly below u."""
    return (u[:, None] > table[x]).sum(axis=1)


def pinned_cumsum(k) -> np.ndarray:
    """The dense table of xferlab 0.1.0: row-wise cumulative sums, 1.0 from where a row reaches its total."""
    raw = np.cumsum(k, axis=1)
    return np.where(raw >= raw[:, -1:], 1.0, raw)


def guide_buckets(k) -> int:
    """m = 2 pow2(d) for the widest row's d stored entries (column 0 and the positive columns)."""
    d = 1 + max(int(np.count_nonzero(row[1:])) for row in k)
    return 2 << (d - 1).bit_length()


@st.composite
def kernel_and_draws(draw):
    n = draw(st.integers(1, 12))
    positive = [0.1, 0.25, 1 / 3, 0.5, 1.0, 2.0, 7.0]
    tiny = [1e-9, 1e-6, 1e-3]  # a cluster of them shares one guide bucket, so a bucket holds several entries
    entry = st.sampled_from([0.0, 0.0, *positive, *(tiny if draw(st.booleans()) else [])])
    k = np.array([[draw(entry) for _ in range(n)] for _ in range(n)])
    zero_tail = draw(st.integers(0, n - 1))
    if zero_tail:
        k[:, n - zero_tail :] = 0.0
    dense = draw(st.none() | st.integers(0, n - 1))  # one full row among sparse ones: the others are padded
    if dense is not None:
        k[dense] = draw(st.lists(st.sampled_from(positive), min_size=n, max_size=n))
    empty = k.sum(axis=1) == 0
    k[empty, 0] = 1.0
    k /= k.sum(axis=1, keepdims=True)
    off = draw(st.lists(st.floats(-1e-12, 1e-12), min_size=n, max_size=n))  # rows off 1, as R1 = 1 allows
    k *= 1.0 + np.array(off)[:, None]
    m = draw(st.integers(1, 20))
    x = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.intp)
    table = pinned_cumsum(k)
    edges = [b / guide_buckets(k) for b in range(guide_buckets(k))]
    u = []
    for xi in x:
        exact = st.sampled_from(sorted({0.0} | {float(c) for c in table[xi] if c < 1.0}))
        edge = st.sampled_from(edges).flatmap(lambda e: st.sampled_from([e, np.nextafter(e, 0.0)]))
        u.append(draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), exact, edge)))
    return k, x, np.array(u)


class TestSamplingStep:
    @settings(max_examples=400, deadline=None)
    @given(kernel_and_draws())
    def test_guided_bisection_equals_the_count(self, case):
        k, x, u = case
        table = cols, cum, guide, rounds = _cdf_table(k)
        dense = pinned_cumsum(k)
        step = _next_states(table, x, u)
        assert np.array_equal(step, _count_step(dense, x, u))
        # each row stores column 0 and its positive columns, in order, padded to the widest row and
        # then by 2^rounds - 1 more columns, with 1.0; at the stored columns the table is the dense
        # one, so the step needs no other entry
        widths = [1 + np.count_nonzero(row[1:]) for row in k]
        d, m = max(widths), guide_buckets(k)
        assert cum.shape == cols.shape == (len(k), d + (1 << rounds) - 1)
        assert guide.shape == (len(k), m) and guide.dtype == np.int32
        assert rounds <= math.ceil(math.log2(d))
        for row, width in enumerate(widths):
            stored = np.r_[0, 1 + np.flatnonzero(k[row, 1:])]
            assert np.array_equal(cols[row, :width], stored)
            assert np.array_equal(cum[row, :width], dense[row, stored])
            assert np.all(cum[row, width:] == 1.0)
            # the guide is the count of stored entries below each bucket's left edge b / m, and no
            # bucket holds more entries below 1 than the bisection's 2^rounds - 1
            edges = np.arange(m) / m
            assert np.array_equal(guide[row], (cum[row, :width, None] < edges).sum(axis=0))
            in_bucket = np.diff(np.r_[guide[row], (cum[row, :width] < 1.0).sum()])
            assert in_bucket.max() < 1 << rounds
        # the dense table is the plain cumulative sum until the row reaches its total,
        # so outside the rounding gap between that total and 1 the step is the
        # count over the plain cumulative sum
        raw = np.cumsum(k, axis=1)
        for xi, ui, si in zip(x, u, step):
            assert k[xi, si] > 0 or ui == 0.0  # u = 0 counts no entry, as before: state 0
            if ui <= raw[xi, -1]:
                assert si == _count_step(raw, np.array([xi]), np.array([ui]))[0]

    def test_a_cluster_of_tiny_weights_takes_more_rounds(self):
        # ten entries of 1e-4 after 0.5 fall in one bucket of width 1/32: the bisection there takes 4 rounds
        k = np.zeros((2, 12))
        k[0, 0], k[0, 1:11], k[0, 11] = 0.5, 1e-4, 0.5 - 1e-3
        k[1, 1] = 1.0
        table = _cdf_table(k)
        assert table[3] == 4 == math.ceil(math.log2(12))
        u = np.r_[0.5 + np.arange(12) * 1e-4 - 5e-5, 0.5, np.nextafter(0.5, 0.0), 17 / 32, 0.999]
        x = np.zeros(u.size, dtype=np.intp)
        assert np.array_equal(_next_states(table, x, u), _count_step(pinned_cumsum(k), x, u))

    def test_short_row_never_returns_n(self):
        k = np.array([[0.25, 0.25, 0.5 - 5e-13], [0.5, 0.25, 0.25]])
        k = np.vstack([k, [0.0, 0.0, 1.0]])
        assert abs(k[0].sum() - (1 - 5e-13)) < 1e-15
        u = np.array([1 - 1e-13, 1 - 2e-13])
        x = np.zeros(2, dtype=np.intp)
        assert np.array_equal(_count_step(np.cumsum(k, axis=1), x, u), [3, 3])
        assert np.array_equal(_next_states(_cdf_table(k), x, u), [2, 2])
        R = MatrixOperator(FiniteSpace(("a", "b", "c")), k)
        assert np.asarray(sample_paths(R, 0, 4, 500, 1).samples).max() == 2

    def test_single_state(self):
        table = _cdf_table(np.ones((1, 1)))
        x = np.zeros(5, dtype=np.intp)
        assert np.array_equal(_next_states(table, x, np.linspace(0, 0.99, 5)), x)


def absorbing_by_steps(k, absorbing, start, count, seed, cap) -> tuple[np.ndarray, int]:
    """Oracle: the per-step absorbing loop with the O(states) count, which gathered and scattered
    the states of the live walks at every step."""
    dense = pinned_cumsum(k)
    finals = np.full(count, start, dtype=np.intp)
    capped = 0
    for rows, rng in chunks(count, seed):
        x = finals[rows]
        live = np.flatnonzero(~absorbing[x])
        for _ in range(cap):
            if not live.size:
                break
            step = _count_step(dense, x[live], rng.random(live.size))
            x[live] = step
            live = live[~absorbing[step]]
        capped += live.size
    return finals, capped


@st.composite
def absorbing_chains(draw):
    """Random sparse chains of 2-50 states: some absorbing, the rest with a few random successors,
    up to all 50, so some walks absorb at once, some wander and some never absorb."""
    n = draw(st.integers(2, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.where(rng.random((n, n)) < draw(st.sampled_from([0.05, 0.2, 1.0])), rng.uniform(0.01, 1.0, (n, n)), 0.0)
    absorbing = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    k[absorbing] = 0.0
    k[absorbing, np.flatnonzero(absorbing)] = 1.0
    k[k.sum(axis=1) == 0, 0] = 1.0
    k /= k.sum(axis=1, keepdims=True)
    absorbing = np.isclose(np.diag(k), 1.0, atol=1e-12)
    return k, absorbing, draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(absorbing_chains(), st.integers(1, 600), st.integers(0, 2**32 - 1), st.integers(1, 80))
@example((ruin_kernel(12), np.isin(np.arange(12), [0, 11]), 5), CHUNK + 37, 3, 40)
def test_absorbing_walks_equal_the_per_step_loop(chain, count, seed, cap):
    k, absorbing, start = chain
    R = MatrixOperator(FiniteSpace(tuple(range(len(k)))), k)
    with mock.patch.object(transferop, "STEP_CAP", cap):
        finals, capped = simulate_absorbing(R, absorbing, start, count, seed)
    expected, expected_capped = absorbing_by_steps(k, absorbing, start, count, seed, cap)
    assert np.array_equal(finals, expected)
    assert capped == expected_capped


class TestOperatorFacts:
    """A matrix operator's kernel is read-only, and its fixed facts are computed once, on first use."""

    def test_the_kernel_is_read_only(self):
        R = MatrixOperator(FiniteSpace(("a", "b")), np.array([[0.5, 0.5], [0.25, 0.75]]))
        with pytest.raises(ValueError):
            R.kernel[0, 0] = 1.0

    def test_two_walks_build_one_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(transferop, "_cdf_table", lambda k: built.append(k) or _cdf_table(k))
        R = MatrixOperator(FiniteSpace(tuple(range(7))), formula_kernel(7))
        first, second = (sample_paths(R, 3, 9, 1000, 11) for _ in range(2))
        assert len(built) == 1
        assert np.array_equal(first.samples, second.samples)
        assert first.fingerprint == second.fingerprint == R.fingerprint()

    def test_walks_and_absorbing_walks_share_one_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(transferop, "_cdf_table", lambda k: built.append(k) or _cdf_table(k))
        R, h = ruin_operator(12)
        reports = [hitting(R, h.values, 5, 500, 3) for _ in range(2)]
        sample_paths(R, 5, 4, 100, 1)
        assert len(built) == 1
        assert reports[0] == reports[1]

    def test_closed_classes_are_found_once_and_warned_on_every_call(self, monkeypatch):
        found = []
        monkeypatch.setattr(transferop, "_closed_classes", lambda k: found.append(k) or _closed_classes(k))
        R = MatrixOperator(FiniteSpace(tuple(range(5))), reducible_kernel(5))
        for _ in range(2):
            with pytest.warns(ReducibleChainWarning):
                invariant_measure(R)
        assert len(found) == 1


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


def closed_classes_by_closure(kernel) -> set[frozenset]:
    """Oracle: transitive closure by repeated squaring; a class is closed when it reaches nothing outside."""
    n = len(kernel)
    reach = (kernel > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    return {frozenset(np.nonzero(reach[i] & reach[:, i])[0].tolist()) for i in range(n)
            if np.all(reach[:, i][reach[i]])}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_closed_class_count_matches_the_closure(support):
    k = np.array(support, dtype=float)
    k[k.sum(axis=1) == 0, 0] = 1.0
    classes = _closed_classes(k)
    assert {frozenset(c.tolist()) for c in classes} == closed_classes_by_closure(k)
    assert all(np.all(np.diff(c) > 0) for c in classes)
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)


def certificate_bound(kernel) -> float:
    return CERTIFICATE_C * len(kernel) * np.finfo(float).eps + np.max(np.abs(kernel.sum(axis=1) - 1.0))


def residual_by_sweep(R, mu) -> float:
    """Oracle: the sup over the state indicators, one application of R each."""
    return max(abs(mu.integrate(R.apply(phi)) - mu.integrate(phi)) for phi in R.space.default_test_basis())


def lazy_cycle_kernel(n: int) -> np.ndarray:
    """A slow-mixing cycle: K[i, i] = K[i, i + 1] = 0.5, except row 0 = (0.3 stay, 0.7 advance)."""
    idx = np.arange(n)
    k = np.zeros((n, n))
    k[idx, idx] = 0.5
    k[idx, (idx + 1) % n] += 0.5
    k[0, :2] = 0.3, 0.7
    return k


@st.composite
def chain_kernels(draw):
    """Random sparse kernels of 1-40 states: irreducible (a cycle through every state), periodic
    (edges only from one cyclic group to the next) or reducible (closed blocks, each with its own
    cycle, and transient states that reach them); in half of them a tenth of the weights are 1e-9."""
    kind = draw(st.sampled_from(["irreducible", "periodic", "reducible"]))
    period = draw(st.integers(2, 4)) if kind == "periodic" else 1
    n = period * draw(st.integers(1, 40 // period))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.random((n, n)) < draw(st.sampled_from([0.05, 0.2, 0.6]))
    order = rng.permutation(n)
    if kind == "periodic":
        group = np.empty(n, dtype=int)
        group[order] = np.arange(n) % period
        support &= group[None, :] == (group[:, None] + 1) % period
    ends = [n]
    if kind == "reducible":
        closed = draw(st.integers(1, n))  # states in closed blocks; the rest are transient
        cuts = np.arange(1, closed)
        ends = [*sorted(rng.choice(cuts, size=min(cuts.size, draw(st.integers(0, 2))), replace=False)), closed]
        block = np.full(n, -1)
        for b, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends)):
            block[order[lo:hi]] = b
        inside = block >= 0
        support[inside] &= block[None, :] == block[inside][:, None]
        transient = order[closed:]
        support[transient, rng.choice(order[:closed], size=transient.size)] = True
    for lo, hi in zip([0, *ends[:-1]], ends):
        cycle = order[lo:hi]
        support[cycle, np.roll(cycle, -1)] = True
    near_zero = rng.random((n, n)) < (0.1 if draw(st.booleans()) else 0.0)
    weights = np.where(near_zero, 1e-9, rng.uniform(0.05, 1.0, (n, n)))
    k = np.where(support, weights, 0.0)
    return k / k.sum(axis=1, keepdims=True)


class TestInvariantMeasure:
    @pytest.mark.parametrize("n", [5, 65, 101])
    def test_reducible_chain_warns_at_every_size(self, n):
        R = MatrixOperator(FiniteSpace(tuple(range(n))), reducible_kernel(n))
        with pytest.warns(ReducibleChainWarning):
            mu = invariant_measure(R)
        assert np.max(np.abs(mu.weights @ R.kernel - mu.weights)) <= 1e-12

    @pytest.mark.parametrize("n", [5, 65])
    def test_one_closed_class_with_transient_states_does_not_warn(self, n):
        k = reducible_kernel(n)
        k[(n - 1) // 2 - 1] = 0.0  # the first class now drains into the second
        k[(n - 1) // 2 - 1, (n - 1) // 2] = 1.0
        R = MatrixOperator(FiniteSpace(tuple(range(n))), k)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReducibleChainWarning)
            invariant_measure(R)

    def test_periodic_chain_certifies_or_raises(self):
        K = bipartite_kernel()
        R = MatrixOperator(FiniteSpace(tuple(range(100))), K)
        t0 = time.perf_counter()
        try:
            mu = invariant_measure(R)
        except ConvergenceError:
            assert time.perf_counter() - t0 < 0.1
            return
        assert time.perf_counter() - t0 < 0.1
        assert np.max(np.abs(mu.weights @ K - mu.weights)) <= 1e-12

    def test_certificate_failure_raises(self, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1 + 1e-6))
        R = MatrixOperator(FiniteSpace(tuple(range(100))), bipartite_kernel())
        with pytest.raises(ConvergenceError, match="certificate"):
            invariant_measure(R)

    def test_singular_bordered_system_raises(self):
        # irreducible on its support, but 1 - 1e-18 rounds to 1: rows 0 and 1 of the system coincide
        k = np.array([[1.0, 0.0, 1e-18], [0.0, 1.0, 1e-18], [0.5, 0.5, 0.0]])
        R = MatrixOperator(FiniteSpace(("a", "b", "c")), k)
        with pytest.raises(ConvergenceError, match="singular"):
            invariant_measure(R)

    def test_slow_lazy_cycle_matches_the_closed_form(self):
        n = 400
        R = MatrixOperator(FiniteSpace(tuple(range(n))), lazy_cycle_kernel(n))
        t0 = time.perf_counter()
        mu = invariant_measure(R)
        assert time.perf_counter() - t0 < 1.0
        exact = np.full(n, 1.4 / (1 + 1.4 * (n - 1)))
        exact[0] = 1 / (1 + 1.4 * (n - 1))
        assert np.max(np.abs(mu.weights - exact)) <= 1e-12

    @pytest.mark.parametrize("n", [40, 300])
    def test_rows_off_by_the_unitality_tolerance_are_certified(self, n):
        k = np.random.default_rng(n).uniform(0.0, 1.0, (n, n))
        k = k / k.sum(axis=1, keepdims=True) * (1 + 9e-13)
        R = MatrixOperator(FiniteSpace(tuple(range(n))), k)
        mu = invariant_measure(R)
        assert R.stationarity_residual(mu) <= certificate_bound(k)

    @settings(max_examples=300, deadline=None)
    @given(chain_kernels())
    def test_solve_warns_certifies_and_matches_the_oracles(self, k):
        n = len(k)
        classes = sorted(closed_classes_by_closure(k), key=min)
        R = MatrixOperator(FiniteSpace(tuple(range(n))), k)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mu = invariant_measure(R)
        assert any(issubclass(w.category, ReducibleChainWarning) for w in caught) == (len(classes) > 1)
        w = mu.weights
        assert np.max(np.abs(w @ k - w)) <= certificate_bound(k)
        off = np.ones(n, dtype=bool)
        off[list(classes[0])] = False
        assert np.all(w[off] == 0.0)
        if len(classes[0]) == n and k[k > 0].min() > 1e-3:  # 1e-9 weights make the law ill-conditioned
            vals, vecs = np.linalg.eig(k.T)
            v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
            assert np.max(np.abs(w - v / v.sum())) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(chain_kernels(), st.booleans(), st.integers(0, 2**32 - 1))
def test_stationarity_residual_matches_the_indicator_sweep(k, stationary, seed):
    n = len(k)
    R = MatrixOperator(FiniteSpace(tuple(range(n))), k)
    if stationary:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReducibleChainWarning)
            mu = invariant_measure(R)
    else:
        w = np.random.default_rng(seed).uniform(0.0, 1.0, n)
        mu = Measure.from_weights(R.space, w / w.sum())
    assert abs(R.stationarity_residual(mu) - residual_by_sweep(R, mu)) <= n * np.finfo(float).eps


def ruin_operator(n: int = 3):
    space = FiniteSpace(tuple(range(n)))
    return MatrixOperator(space, ruin_kernel(n, 0.5)), Observable.from_values(space, np.linspace(0.0, 1.0, n))


@pytest.mark.parametrize("start", [-2, 3])
@pytest.mark.parametrize("entry", ["simulate_absorbing", "hitting_verification", "hitting"])
def test_absorbing_walks_refuse_a_start_outside_the_states(entry, start):
    R, h = ruin_operator()
    calls = {
        "simulate_absorbing": lambda: simulate_absorbing(R, np.array([True, False, True]), start, 5, 1),
        "hitting_verification": lambda: hitting_verification(path_network([1.0, 1.0]), {0: 0.0, 2: 1.0}, start, 5, 1),
        "hitting": lambda: hitting(R, h.values, start, 5, 1),
    }
    with pytest.raises(ValueError, match="start"):
        calls[entry]()


@pytest.mark.parametrize("entry", ["finite", "circle", "simulate_absorbing", "hitting_verification", "hitting"])
def test_walks_refuse_a_count_below_one(entry):
    R, h = ruin_operator()
    C = ruelle_from_filter(CircleSpace(), daubechies4().m0_coeffs())
    calls = {
        "finite": lambda: sample_paths(R, 1, 3, 0, 1),
        "circle": lambda: sample_paths(C, Fraction(1, 3), 3, 0, 1),
        "simulate_absorbing": lambda: simulate_absorbing(R, np.array([True, False, True]), 1, 0, 1),
        "hitting_verification": lambda: hitting_verification(path_network([1.0, 1.0]), {0: 0.0, 2: 1.0}, 1, 0, 1),
        "hitting": lambda: hitting(R, h.values, 1, 0, 1),
    }
    with pytest.raises(ValueError, match="count"):
        calls[entry]()


def walk_by_paths(R, root, n, count, seed) -> list[list[Fraction]]:
    """Oracle: the per-path circle walk that the vectorised one replaced, one step at a time on Fractions."""
    t0 = CircleSpace.point(root)
    branches = functools.cache(R.transition_weights)
    out = []
    for rows, rng in chunks(count, seed):
        u = rng.random((rows.stop - rows.start, max(n - 1, 1)))
        for i in range(len(u)):
            path, t = [t0], t0
            for step in range(n - 1):
                (u0, p0), (u1, _p1) = branches(t)
                t = u0 if u[i, step] < p0 else u1
                path.append(t)
            out.append(path)
    return out


WALK_FILTERS = {"haar": haar_filter().m0_coeffs(), "d4": daubechies4().m0_coeffs(),
                "lattice": lattice_filter([0.4, -1.3, 2.2]).m0_coeffs()}


@settings(max_examples=120, deadline=None)
@given(
    m0=st.one_of(st.sampled_from(sorted(WALK_FILTERS)).map(WALK_FILTERS.get),
                 st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3).map(lambda a: lattice_filter(a).m0_coeffs())),
    root=st.sampled_from([1, 3, 7, 2**31 - 1, 2**64 + 13]).flatmap(
        lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q))),
    depth=st.integers(1, 14),
    count=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(m0=WALK_FILTERS["d4"], root=Fraction(2, 7), depth=9, count=CHUNK + 37, seed=3)
def test_circle_walk_equals_the_per_path_loop(m0, root, depth, count, seed):
    R = ruelle_from_filter(CircleSpace(), m0)
    ens = sample_paths(R, root, depth, count, seed)
    assert ens.samples.dtype == object and ens.samples.shape == (count, depth)
    assert {type(t) for t in ens.samples.flat} == {Fraction}
    assert ens.samples.tolist() == walk_by_paths(R, root, depth, count, seed)


# (root denominator q, depth n): D = q 2^(n - 1) just below 2^53, at it, just above it, near 2^62 (where int64
# would hold the numerators but lose bits converting them to float), and above 2^63 from a large q and from q = 3
EDGE_DENOMINATORS = [(2**42 - 1, 12), (2**42, 12), (2**42 + 1, 12), (2**51 + 1, 12), (2**53 + 1, 12), (3, 64)]


@pytest.mark.parametrize("q,depth", EDGE_DENOMINATORS)
@pytest.mark.parametrize("weight", ["d4", "uniform"])  # uniform branching reaches the most distinct numerators
def test_numerators_at_the_int64_and_float_edges_are_exact(q, depth, weight):
    space = CircleSpace(degree=8)
    R = uniform_circle_operator(space) if weight == "uniform" else ruelle_from_filter(space, daubechies4().m0_coeffs())
    rng = np.random.default_rng(depth)
    p = int(rng.integers(1, q))
    while math.gcd(p, q) != 1:
        p += 1
    root = Fraction(p, q)
    ens = sample_paths(R, root, depth, 300, 1)
    D = q << (depth - 1)
    assert ens.denominator == D and ens.paths.dtype == (np.int64 if D < 2**53 else object)
    exact = ens.samples
    floats = np.array([float(t) for t in exact.flat]).reshape(exact.shape)
    assert np.array_equal((ens.paths / D).astype(float).view(np.uint64), floats.view(np.uint64))
    assert exact.tolist() == walk_by_paths(R, root, depth, 300, 1)
    word = CylinderFunctional(tuple(space.random_observable(rng) for _ in range(min(depth, 6))))
    vals = np.ones(ens.count, dtype=complex)
    for j, phi in enumerate(word.word):  # at the Fraction angles, as the walk's object arrays were read
        vals *= phi(exact[:, j])
    assert ens.functional_mean(word) == mean_stderr(vals.real)
